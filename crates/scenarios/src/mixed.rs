//! Mixed-protocol metro (experiment E15): one medium, three MACs.
//!
//! The MAC service layer's payoff scenario. A single kernel medium
//! simultaneously carries:
//!
//! - a **Wi-LE fleet** — a [`BeaconFleet`] beaconing readings into a
//!   [`GatewayCluster`] exactly as in E11,
//! - a **BLE fleet** — advertising trains through [`BleMac`], heard by
//!   three scanner radios (one per advertising channel) and decoded
//!   back into MCPS-DATA.indications, and
//! - **migrants** — devices that start life as Wi-LE beacons and, at
//!   `t_migrate`, switch protocol *through MLME primitives alone*:
//!   MLME-SCAN finds the AP, MLME-ASSOCIATE runs the full
//!   `wile-netstack` handshake, and every later uplink is a WiFi
//!   MCPS-DATA with the same request type the Wi-LE phase used.
//!
//! Composition discipline: the medium requires globally non-decreasing
//! transmit starts, and both the WiFi handshake (~1.5 s) and a BLE
//! advertising event (three channel PDUs over ~2 ms) transmit past
//! their wake instant. Every device therefore honours the kernel **air
//! lease** — a wake that finds `now < air_reserved_until()` defers to
//! the lease end (a BLE device also slips its advertising train with
//! [`BleMac::defer_event`]), and every multi-transmission confirm
//! publishes its occupancy with [`Ctx::reserve_air`]. That is the §3.1
//! story on one shared hall of air: WiFi's chatty exchanges make
//! everyone else queue; Wi-LE's single beacon never holds the lease.
//!
//! Determinism contract: the [`MixedReport`] — cluster stats, both
//! FNV-1a digests, every counter — is byte-identical at any `workers`
//! setting (`workers` only shards the cluster's aggregation), asserted
//! by the tests here and by `examples/mixed_metro.rs`.

use wile::inject::Injector;
use wile::monitor::Gateway;
use wile::registry::DeviceIdentity;
use wile_ble::advertiser::Advertiser;
use wile_cluster::{ClusterStats, GatewayCluster};
use wile_dot11::MacAddr;
use wile_mac::{
    AirCtx, BeaconFleet, BleMac, MacStatus, McpsDataIndication, McpsDataRequest,
    MlmeAssociateRequest, MlmeScanRequest, WifiMac, WileMac,
};
use wile_netstack::ap::AccessPoint;
use wile_netstack::connect::ConnectConfig;
use wile_radio::medium::{RadioConfig, RadioId};
use wile_radio::time::{Duration, Instant};
use wile_sim::ingest::GatewayIngest;
use wile_sim::kernel::{Actor, Ctx, Kernel};
use wile_sim::poll::PollTrain;

use crate::metro::{cluster_config, fold_delivery, splitmix64, FNV_OFFSET};

/// Mixed-fleet configuration.
#[derive(Debug, Clone)]
pub struct MixedConfig {
    /// Wi-LE gateway count, laid out on one row.
    pub gateways: usize,
    /// Gateway pitch, metres.
    pub gw_spacing_m: f64,
    /// Wi-LE beacon-only devices.
    pub wile_devices: usize,
    /// BLE advertising devices.
    pub ble_devices: usize,
    /// Devices that migrate Wi-LE → WiFi at `t_migrate`.
    pub migrants: usize,
    /// Wi-LE fleet beacon period.
    pub wile_period: Duration,
    /// BLE nominal advertising interval (≥ 20 ms per spec).
    pub adv_interval: Duration,
    /// Migrant wake period (both phases).
    pub migrant_period: Duration,
    /// When migrants switch protocol (first wake at or after this).
    pub t_migrate: Instant,
    /// Simulated run length.
    pub duration: Duration,
    /// Sink poll cadence (cluster + BLE scanners + release).
    pub poll_every: Duration,
    /// World seed.
    pub seed: u64,
}

impl MixedConfig {
    /// A small mixed hall for tests: 2 gateways, 40 Wi-LE devices,
    /// 8 BLE advertisers, 3 migrants switching at half-time.
    pub fn smoke(seed: u64) -> Self {
        MixedConfig {
            gateways: 2,
            gw_spacing_m: 8.0,
            wile_devices: 40,
            ble_devices: 8,
            migrants: 3,
            wile_period: Duration::from_secs(15),
            adv_interval: Duration::from_secs(1),
            migrant_period: Duration::from_secs(20),
            t_migrate: Instant::from_secs(60),
            duration: Duration::from_secs(120),
            poll_every: Duration::from_secs(5),
            seed,
        }
    }

    /// The smoke geometry scaled to `wile_devices` (BLE fleet rides at
    /// one advertiser per five Wi-LE devices, migrants at one per
    /// twenty) — the knob `WILE_E15_DEVICES` turns in CI and in
    /// `examples/mixed_metro.rs`.
    pub fn scaled(wile_devices: usize, seed: u64) -> Self {
        MixedConfig {
            wile_devices,
            ble_devices: (wile_devices / 5).max(4),
            migrants: (wile_devices / 20).max(2),
            ..MixedConfig::smoke(seed)
        }
    }

    fn gw_position(&self, i: usize) -> (f64, f64) {
        (i as f64 * self.gw_spacing_m, 0.0)
    }

    /// Deterministic device position inside the hall: the gateway row's
    /// span plus a 3 m margin, 10 m deep. `class` decorrelates the
    /// Wi-LE / BLE / migrant streams.
    fn device_position(&self, class: u64, i: usize) -> (f64, f64) {
        let width = (self.gateways.saturating_sub(1)) as f64 * self.gw_spacing_m;
        let r1 = splitmix64(self.seed ^ class ^ (i as u64).wrapping_mul(2).wrapping_add(1));
        let r2 = splitmix64(r1);
        let unit = |r: u64| r as f64 / u64::MAX as f64;
        (-3.0 + unit(r1) * (width + 6.0), unit(r2) * 10.0)
    }

    fn hall_center(&self) -> (f64, f64) {
        (
            (self.gateways.saturating_sub(1)) as f64 * self.gw_spacing_m / 2.0,
            5.0,
        )
    }
}

/// What a mixed-fleet run measured. Byte-identical at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedReport {
    /// Wi-LE beacon-only devices.
    pub wile_devices: usize,
    /// BLE advertising devices.
    pub ble_devices: usize,
    /// Migrating devices.
    pub migrants: usize,
    /// Beacons sent by the Wi-LE-only fleet.
    pub wile_beacons: u64,
    /// Beacons migrants sent during their Wi-LE phase.
    pub migrant_wile_beacons: u64,
    /// Successful protocol migrations (MLME-ASSOCIATE confirmed).
    pub migrations: u64,
    /// Failed association attempts.
    pub failed_migrations: u64,
    /// Frames the migration probe exchanges put on air.
    pub scan_frames: u64,
    /// WiFi data uplinks migrants delivered after switching.
    pub migrant_wifi_data: u64,
    /// WiFi uplinks refused (station not associated).
    pub migrant_wifi_refused: u64,
    /// BLE advertising events completed.
    pub ble_events: u64,
    /// Advertising PDUs decoded back into MCPS-DATA.indications across
    /// the three scanner channels.
    pub ble_indications: u64,
    /// Wakes (any protocol) that found the air leased and deferred.
    pub deferrals: u64,
    /// Wi-LE cluster counters (hears, wins, suppressions, handoffs…).
    pub stats: ClusterStats,
    /// FNV-1a digest over the cluster's delivery stream.
    pub delivery_digest: u64,
    /// FNV-1a digest over the decoded BLE indication stream.
    pub ble_digest: u64,
    /// Simulated end time.
    pub sim_end: Instant,
}

/// Events driving the mixed world.
enum MixedEv {
    /// Wi-LE fleet device `i` wakes to beacon.
    WileWake(u32),
    /// BLE device `i`'s advertising event is due.
    BleWake(u32),
    /// Migrant `i` wakes (either protocol phase).
    MigrantWake(u32),
    /// Migrant `i`'s association, scheduled after its probe exchange.
    MigrantAssociate(u32),
    /// The sink polls the cluster and the BLE scanners, then releases.
    Poll,
}

/// The Wi-LE-only fleet: E11's [`BeaconFleet`] plus the air-lease
/// deferral every mixed-world transmitter honours.
struct WileFleet {
    fleet: BeaconFleet,
    deferrals: u64,
}

impl Actor<MixedEv> for WileFleet {
    fn on_event(&mut self, now: Instant, ev: MixedEv, ctx: &mut Ctx<'_, MixedEv>) {
        let MixedEv::WileWake(i) = ev else { return };
        let lease = ctx.air_reserved_until();
        if now < lease {
            self.deferrals += 1;
            let me = ctx.self_id();
            ctx.schedule(lease, me, MixedEv::WileWake(i));
            return;
        }
        let mut air = AirCtx {
            medium: &mut *ctx.medium,
            now,
            actor: i,
            telemetry: &mut *ctx.telemetry,
        };
        // One beacon at `now`: nothing to lease.
        if let Some(next) = self.fleet.wake(&mut air, i) {
            ctx.schedule(next, ctx.self_id(), MixedEv::WileWake(i));
        }
    }
}

/// The BLE fleet: every due event is one MCPS-DATA.request on a
/// [`BleMac`]; a leased wake slips the whole advertising train.
struct BleFleet {
    mac: BleMac,
    payloads: Vec<Vec<u8>>,
    end: Instant,
    events: u64,
    deferrals: u64,
}

impl Actor<MixedEv> for BleFleet {
    fn on_event(&mut self, now: Instant, ev: MixedEv, ctx: &mut Ctx<'_, MixedEv>) {
        let MixedEv::BleWake(i) = ev else { return };
        let lease = ctx.air_reserved_until();
        if now < lease {
            // The event's PDUs are scheduled relative to the train, so
            // the train itself must slip with the wake.
            self.deferrals += 1;
            self.mac.defer_event(i, lease);
            let me = ctx.self_id();
            ctx.schedule(lease, me, MixedEv::BleWake(i));
            return;
        }
        let confirm = {
            let mut air = AirCtx {
                medium: &mut *ctx.medium,
                now,
                actor: i,
                telemetry: &mut *ctx.telemetry,
            };
            self.mac.mcps_data(
                &mut air,
                McpsDataRequest::plain(i, &self.payloads[i as usize]),
            )
        };
        // Three channel PDUs stretch past `now`: hold the lease so
        // nobody transmits into the middle of the event.
        ctx.reserve_air(confirm.t_sleep);
        self.events += 1;
        let next = self.mac.next_event_at(i);
        if next <= self.end {
            ctx.schedule(next, ctx.self_id(), MixedEv::BleWake(i));
        }
    }
}

/// The migrating fleet: a [`WileMac`] and a
/// station-per-device [`WifiMac`] side by side; `migrated[i]` flips
/// when the MLME association path has run.
struct MigrantFleet {
    wile: WileMac,
    wifi: WifiMac,
    migrated: Vec<bool>,
    period: Duration,
    t_migrate: Instant,
    end: Instant,
    wile_beacons: u64,
    migrations: u64,
    failed_migrations: u64,
    scan_frames: u64,
    wifi_data: u64,
    wifi_refused: u64,
    deferrals: u64,
}

impl MigrantFleet {
    fn defer(&mut self, now: Instant, ev: MixedEv, ctx: &mut Ctx<'_, MixedEv>) -> bool {
        let lease = ctx.air_reserved_until();
        if now < lease {
            self.deferrals += 1;
            let me = ctx.self_id();
            ctx.schedule(lease, me, ev);
            return true;
        }
        false
    }

    fn schedule_next(&self, now: Instant, i: u32, ctx: &mut Ctx<'_, MixedEv>) {
        let next = now + self.period;
        if next <= self.end {
            ctx.schedule(next, ctx.self_id(), MixedEv::MigrantWake(i));
        }
    }
}

impl Actor<MixedEv> for MigrantFleet {
    fn on_event(&mut self, now: Instant, ev: MixedEv, ctx: &mut Ctx<'_, MixedEv>) {
        match ev {
            MixedEv::MigrantWake(i) => {
                if self.defer(now, MixedEv::MigrantWake(i), ctx) {
                    return;
                }
                if !self.migrated[i as usize] && now >= self.t_migrate {
                    // Protocol migration, step 1: MLME-SCAN (the probe
                    // exchange). The association follows as its own
                    // event at the scan's quiet point.
                    let scan = {
                        let mut air = AirCtx {
                            medium: &mut *ctx.medium,
                            now,
                            actor: i,
                            telemetry: &mut *ctx.telemetry,
                        };
                        self.wifi.mlme_scan(&mut air, MlmeScanRequest { device: i })
                    };
                    self.scan_frames += scan.frames;
                    ctx.reserve_air(scan.t_done);
                    let me = ctx.self_id();
                    ctx.schedule(scan.t_done, me, MixedEv::MigrantAssociate(i));
                    return;
                }
                if self.migrated[i as usize] {
                    // WiFi phase: data plus the AP's MAC ACK — a
                    // two-transmission exchange, so lease it.
                    let confirm = {
                        let mut air = AirCtx {
                            medium: &mut *ctx.medium,
                            now,
                            actor: i,
                            telemetry: &mut *ctx.telemetry,
                        };
                        self.wifi
                            .mcps_data(&mut air, McpsDataRequest::plain(i, &BeaconFleet::READING))
                    };
                    ctx.reserve_air(confirm.t_sleep);
                    if confirm.status == MacStatus::Success {
                        self.wifi_data += 1;
                    } else {
                        self.wifi_refused += 1;
                    }
                } else {
                    // Wi-LE phase: one injected beacon. The injector
                    // models MCU boot, so the frame hits the air well
                    // after `now` — lease through the sleep point.
                    let confirm = {
                        let mut air = AirCtx {
                            medium: &mut *ctx.medium,
                            now,
                            actor: i,
                            telemetry: &mut *ctx.telemetry,
                        };
                        self.wile
                            .mcps_data(&mut air, McpsDataRequest::plain(i, &BeaconFleet::READING))
                    };
                    ctx.reserve_air(confirm.t_sleep);
                    self.wile_beacons += 1;
                }
                self.schedule_next(now, i, ctx);
            }
            MixedEv::MigrantAssociate(i) => {
                if self.defer(now, MixedEv::MigrantAssociate(i), ctx) {
                    return;
                }
                // Protocol migration, step 2: the full handshake.
                let confirm = {
                    let mut air = AirCtx {
                        medium: &mut *ctx.medium,
                        now,
                        actor: i,
                        telemetry: &mut *ctx.telemetry,
                    };
                    self.wifi
                        .mlme_associate(&mut air, MlmeAssociateRequest { device: i })
                };
                ctx.reserve_air(confirm.t_sleep);
                self.migrated[i as usize] = true;
                if confirm.connected {
                    self.migrations += 1;
                } else {
                    self.failed_migrations += 1;
                }
                ctx.emit("migrated", confirm.connected as u64);
                self.schedule_next(now, i, ctx);
            }
            _ => unreachable!("non-migrant event addressed to the migrant fleet"),
        }
    }
}

/// Fold one decoded BLE indication into the FNV-1a digest.
fn fold_indication(h: &mut u64, channel: u8, ind: &McpsDataIndication) {
    let mut fold = |v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    fold(channel as u64);
    fold(ind.device_id as u64);
    fold(ind.seq as u64);
    fold(ind.at.as_nanos());
    fold(ind.rssi_dbm.to_bits());
    fold(ind.payload.len() as u64);
    for &b in ind.payload.iter() {
        fold(b as u64);
    }
}

/// The sink: cluster poll (sharded over `workers`), BLE scanner drain,
/// digests, release.
struct MixedSink {
    cluster: GatewayCluster,
    scanners: [RadioId; 3],
    workers: usize,
    train: PollTrain,
    wile_digest: u64,
    ble_digest: u64,
    ble_indications: u64,
}

impl Actor<MixedEv> for MixedSink {
    fn on_event(&mut self, now: Instant, _ev: MixedEv, ctx: &mut Ctx<'_, MixedEv>) {
        let got = self.cluster.poll(
            ctx.medium,
            ctx.faults.as_deref_mut(),
            now,
            self.workers,
            None,
        );
        ctx.emit("poll_delivered", got.len() as u64);
        for d in &got {
            fold_delivery(&mut self.wile_digest, d);
        }
        // The BLE face of the gateway: one scanner per advertising
        // channel, every heard PDU decoded back into an indication.
        for (k, &radio) in self.scanners.iter().enumerate() {
            for f in ctx.medium.take_inbox(radio, now) {
                let ch = 37 + k as u8;
                if let Some(ind) = BleMac::decode_advertisement(&f.bytes, ch, f.at, f.rssi_dbm) {
                    ctx.telemetry.inc("mac.mcps_data.indication", &[], 1);
                    fold_indication(&mut self.ble_digest, ch, &ind);
                    self.ble_indications += 1;
                }
            }
        }
        ctx.medium.release_all(now);
        if let Some(next) = self.train.next(now) {
            ctx.schedule(next, ctx.self_id(), MixedEv::Poll);
        }
    }
}

/// Run the mixed-protocol metro with up to `workers` cluster
/// aggregation threads. The report is byte-identical at any setting.
pub fn run_mixed(cfg: &MixedConfig, workers: usize) -> MixedReport {
    assert!(cfg.gateways >= 1);
    assert!(cfg.wile_devices >= 1 && cfg.ble_devices >= 1 && cfg.migrants >= 1);
    let mut kernel: Kernel<MixedEv> = Kernel::new(Default::default(), cfg.seed);
    let end = Instant::ZERO + cfg.duration;

    // Gateway radios first (cluster lane order), then the three BLE
    // scanner radios at the hall's centre.
    let gw_radios: Vec<RadioId> = (0..cfg.gateways)
        .map(|i| {
            kernel.medium_mut().attach(RadioConfig {
                position_m: cfg.gw_position(i),
                ..Default::default()
            })
        })
        .collect();
    let center = cfg.hall_center();
    let scanners: [RadioId; 3] = [37u8, 38, 39].map(|ch| {
        kernel.medium_mut().attach(RadioConfig {
            position_m: center,
            channel: ch,
            ..Default::default()
        })
    });

    // Wi-LE fleet (device ids 1..).
    let mut wile_fleet = BeaconFleet::new(kernel.medium_mut(), cfg.wile_period, end);
    for i in 0..cfg.wile_devices {
        let radio = kernel.medium_mut().attach(RadioConfig {
            position_m: cfg.device_position(0x57_49_4C_45, i),
            ..Default::default()
        });
        wile_fleet.push_device(i as u32 + 1, radio);
    }
    let (wile_start, wile_stagger) = wile_fleet.wake_train();
    let wile_fleet = kernel.add_actor(WileFleet {
        fleet: wile_fleet,
        deferrals: 0,
    });

    // BLE fleet (device ids 90_000..): one radio per advertising
    // channel, trains staggered so events rarely tie.
    let mut ble_mac = BleMac::new();
    let mut ble_payloads = Vec::with_capacity(cfg.ble_devices);
    for i in 0..cfg.ble_devices {
        let pos = cfg.device_position(0x42_4C_45, i);
        let radios: [RadioId; 3] = [37u8, 38, 39].map(|ch| {
            kernel.medium_mut().attach(RadioConfig {
                position_m: pos,
                channel: ch,
                ..Default::default()
            })
        });
        let start = Instant::from_ms(200) + Duration::from_ms(23 * i as u64);
        ble_mac.push_advertiser(
            90_000 + i as u32,
            radios,
            Advertiser::new(start, cfg.adv_interval, cfg.seed ^ (0xB1E << 4) ^ i as u64),
        );
        ble_payloads.push(format!("b{i:04}").into_bytes());
    }
    let ble_starts: Vec<Instant> = (0..cfg.ble_devices)
        .map(|i| ble_mac.next_event_at(i as u32))
        .collect();
    let ble_fleet = kernel.add_actor(BleFleet {
        mac: ble_mac,
        payloads: ble_payloads,
        end,
        events: 0,
        deferrals: 0,
    });

    // Migrants (Wi-LE ids 50_001..): one shared device radio for both
    // protocol phases plus a dedicated AP a metre away.
    let mut migrant_wile = WileMac::new();
    let mut migrant_wifi = WifiMac::new();
    for i in 0..cfg.migrants {
        let pos = cfg.device_position(0x4D_49_47, i);
        let dev_radio = kernel.medium_mut().attach(RadioConfig {
            position_m: pos,
            ..Default::default()
        });
        let ap_radio = kernel.medium_mut().attach(RadioConfig {
            position_m: (pos.0, pos.1 + 1.0),
            ..Default::default()
        });
        migrant_wile.push_injector(
            Injector::new(DeviceIdentity::new(50_001 + i as u32), Instant::ZERO),
            dev_radio,
        );
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 1, i as u8 + 1]);
        let sta_mac = MacAddr::new([0x02, 0, 0, 0, 1, i as u8 + 1]);
        migrant_wifi.push_station(
            dev_radio,
            ap_radio,
            AccessPoint::new(b"MetroNet", "hunter22", ap_mac, 6),
            sta_mac,
            "hunter22",
            ConnectConfig::default(),
            cfg.seed as u32 ^ ((i as u32) << 16),
        );
    }
    let migrant_fleet = kernel.add_actor(MigrantFleet {
        wile: migrant_wile,
        wifi: migrant_wifi,
        migrated: vec![false; cfg.migrants],
        period: cfg.migrant_period,
        t_migrate: cfg.t_migrate,
        end,
        wile_beacons: 0,
        migrations: 0,
        failed_migrations: 0,
        scan_frames: 0,
        wifi_data: 0,
        wifi_refused: 0,
        deferrals: 0,
    });

    // The sink.
    let mut cluster = GatewayCluster::new(cluster_config(Some(1024), cfg.duration + cfg.duration));
    for radio in gw_radios {
        cluster.add_gateway(GatewayIngest::new(radio, Gateway::new()));
    }
    let train = PollTrain::new(cfg.poll_every, end + cfg.wile_period);
    let sink = kernel.add_actor(MixedSink {
        cluster,
        scanners,
        workers,
        train,
        wile_digest: FNV_OFFSET,
        ble_digest: FNV_OFFSET,
        ble_indications: 0,
    });

    // Wake trains: Wi-LE staggered across one period, BLE at each
    // advertiser's first event, migrants half a second apart.
    kernel.schedule_batch(
        wile_start,
        wile_stagger,
        wile_fleet,
        (0..cfg.wile_devices as u32).map(MixedEv::WileWake),
    );
    for (i, &at) in ble_starts.iter().enumerate() {
        kernel.schedule(at, ble_fleet, MixedEv::BleWake(i as u32));
    }
    for i in 0..cfg.migrants as u32 {
        kernel.schedule(
            Instant::from_ms(1_000) + Duration::from_ms(500 * i as u64),
            migrant_fleet,
            MixedEv::MigrantWake(i),
        );
    }
    kernel.schedule(train.first(), sink, MixedEv::Poll);

    kernel.run();

    let wile = kernel.remove_actor::<WileFleet>(wile_fleet);
    let ble = kernel.remove_actor::<BleFleet>(ble_fleet);
    let mig = kernel.remove_actor::<MigrantFleet>(migrant_fleet);
    let sink = kernel.remove_actor::<MixedSink>(sink);
    let stats = sink.cluster.stats();
    assert!(
        stats.conserves_offered_load(),
        "delivered + suppressions + drops must equal hears: {stats:?}"
    );
    MixedReport {
        wile_devices: cfg.wile_devices,
        ble_devices: cfg.ble_devices,
        migrants: cfg.migrants,
        wile_beacons: wile.fleet.total_sent(),
        migrant_wile_beacons: mig.wile_beacons,
        migrations: mig.migrations,
        failed_migrations: mig.failed_migrations,
        scan_frames: mig.scan_frames,
        migrant_wifi_data: mig.wifi_data,
        migrant_wifi_refused: mig.wifi_refused,
        ble_events: ble.events,
        ble_indications: sink.ble_indications,
        deferrals: wile.deferrals + ble.deferrals + mig.deferrals,
        stats,
        delivery_digest: sink.wile_digest,
        ble_digest: sink.ble_digest,
        sim_end: kernel.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_smoke_carries_all_three_protocols() {
        let r = run_mixed(&MixedConfig::smoke(42), 1);
        // Wi-LE: 40 devices × 8 periods, delivered through the cluster.
        assert!(r.wile_beacons >= 40 * 7, "{r:?}");
        assert!(r.stats.delivered > 0, "{r:?}");
        assert_ne!(r.delivery_digest, FNV_OFFSET);
        // BLE: trains ran and the scanners decoded them (3 channels).
        assert!(r.ble_events >= 8 * 100, "{r:?}");
        assert!(r.ble_indications > r.ble_events, "{r:?}");
        assert_ne!(r.ble_digest, FNV_OFFSET);
        // Migration: every migrant beaconed as Wi-LE first, switched at
        // t_migrate through MLME-SCAN + MLME-ASSOCIATE, then uplinked
        // as WiFi.
        assert!(r.migrant_wile_beacons >= 3, "{r:?}");
        assert_eq!(r.migrations, 3, "{r:?}");
        assert_eq!(r.failed_migrations, 0, "{r:?}");
        assert!(r.scan_frames >= 2 * 3, "{r:?}");
        assert!(r.migrant_wifi_data >= 3, "{r:?}");
        assert_eq!(r.migrant_wifi_refused, 0, "{r:?}");
        // The shared air made someone queue.
        assert!(r.deferrals > 0, "{r:?}");
    }

    #[test]
    fn mixed_report_is_digest_identical_at_any_worker_count() {
        let base = run_mixed(&MixedConfig::smoke(42), 1);
        for workers in [2usize, 4, 8] {
            let r = run_mixed(&MixedConfig::smoke(42), workers);
            assert_eq!(r, base, "diverged at workers={workers}");
        }
    }

    #[test]
    fn mixed_is_deterministic_and_seed_sensitive() {
        let a = run_mixed(&MixedConfig::smoke(7), 1);
        let b = run_mixed(&MixedConfig::smoke(7), 1);
        assert_eq!(a, b);
        let c = run_mixed(&MixedConfig::smoke(8), 1);
        assert_ne!(a.delivery_digest, c.delivery_digest);
    }

    #[test]
    fn migrants_fall_silent_on_wile_after_switching() {
        // After t_migrate no migrant beacon reaches the cluster: their
        // Wi-LE device ids vanish from the delivery stream's tail.
        let cfg = MixedConfig::smoke(42);
        let r = run_mixed(&cfg, 1);
        assert!(r.migrations == cfg.migrants as u64);
        // Wi-LE-phase uplinks stop once every migrant has switched:
        // each migrant wakes at most twice before its t_migrate wake
        // (1 s start + 20 s period vs 60 s switch point → 3 wakes).
        assert!(r.migrant_wile_beacons <= (cfg.migrants * 3) as u64, "{r:?}");
    }
}
