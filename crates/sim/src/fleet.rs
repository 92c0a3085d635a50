//! Massive-fleet scenario: the scalability claim, executed.
//!
//! ROADMAP's north star is millions of devices; the kernel's sparse
//! time advancement is what makes the first four orders of magnitude
//! cheap. This module runs N periodic Wi-LE beacon transmitters against
//! one polling gateway with *no per-device MCU trace* — the whole fleet
//! is one [`BeaconFleet`] actor (the §5.4 precomputed-packet
//! optimization), each wake is one [`BeaconFleet::wake`], and energy is
//! attributed in closed form from one dry-run cycle.
//! Combined with the bounded medium ([`Kernel`] default) and one
//! release mark for every transmit-only radio, raised at each poll
//! ([`wile_radio::Medium::release_all`]), a
//! 10,000-device, 1-hour fleet completes in seconds with O(in-flight)
//! medium memory — the numbers live in EXPERIMENTS.md E10.

use crate::ingest::GatewayIngest;
use crate::kernel::{Actor, ActorId, Ctx, Kernel};
use crate::poll::PollTrain;
use wile::inject::Injector;
use wile::monitor::Gateway;
use wile::registry::DeviceIdentity;
use wile_instrument::energy::energy_mj;
use wile_mac::{AirCtx, BeaconFleet};
use wile_radio::channel::ChannelModel;
use wile_radio::medium::{Medium, RadioConfig};
use wile_radio::time::{Duration, Instant};

/// Fleet scenario configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size; devices sit on a circle around the gateway.
    pub devices: usize,
    /// Circle radius, metres.
    pub radius_m: f64,
    /// Per-device beacon period. Wakes are staggered across the period
    /// so the fleet's load is uniform, not phase-locked.
    pub period: Duration,
    /// Simulated run length.
    pub duration: Duration,
    /// Gateway drain-and-release cadence.
    pub poll_every: Duration,
    /// Medium seed.
    pub seed: u64,
}

impl FleetConfig {
    /// The E10 configuration: 10,000 devices, one simulated hour.
    pub fn mega(seed: u64) -> Self {
        FleetConfig {
            devices: 10_000,
            // Keep the circle inside the WILE_PAPER rate's SNR budget
            // (~10 m at 0 dBm under the default model); shadowing still
            // costs a few percent.
            radius_m: 8.0,
            period: Duration::from_secs(60),
            duration: Duration::from_secs(3_600),
            poll_every: Duration::from_secs(10),
            seed,
        }
    }

    /// A small configuration for tests.
    pub fn smoke(seed: u64) -> Self {
        FleetConfig {
            devices: 200,
            radius_m: 5.0,
            period: Duration::from_secs(30),
            duration: Duration::from_secs(600),
            poll_every: Duration::from_secs(5),
            seed,
        }
    }
}

/// What a fleet run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet size.
    pub devices: usize,
    /// Beacons transmitted.
    pub beacons_sent: u64,
    /// Messages the gateway delivered (deduplicated).
    pub messages_delivered: u64,
    /// Frames the gateway dropped for a bad FCS.
    pub bad_fcs: u64,
    /// Peak retained transmissions in the medium — the bounded-memory
    /// witness (compare with `beacons_sent`).
    pub peak_live_tx: usize,
    /// Transmissions retired by the bounded medium.
    pub retired_tx: u64,
    /// Closed-form transmit energy for the whole fleet, mJ (beacons ×
    /// one measured wake-transmit cycle).
    pub tx_energy_mj: f64,
    /// Simulated end time.
    pub sim_end: Instant,
}

impl FleetReport {
    /// Delivery ratio over all beacons.
    pub fn delivery_ratio(&self) -> f64 {
        if self.beacons_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.beacons_sent as f64
        }
    }
}

/// Events driving the fleet.
enum FleetEv {
    /// Device `i` wakes and transmits one beacon.
    Wake(u32),
    /// The gateway drains its inbox and releases consumed history.
    Poll,
}

/// Every transmit-only device in the fleet, as one actor: the device
/// ordinal rides in [`FleetEv::Wake`].
impl Actor<FleetEv> for BeaconFleet {
    fn on_event(&mut self, now: Instant, ev: FleetEv, ctx: &mut Ctx<'_, FleetEv>) {
        let FleetEv::Wake(i) = ev else { return };
        let mut air = AirCtx {
            medium: &mut *ctx.medium,
            now,
            actor: i,
            telemetry: &mut *ctx.telemetry,
        };
        if let Some(next) = self.wake(&mut air, i) {
            ctx.schedule(next, ctx.self_id(), FleetEv::Wake(i));
        }
    }
}

/// The gateway: drain into indications, count, release, sample memory,
/// repeat.
struct GatewaySink {
    ingest: GatewayIngest,
    train: PollTrain,
    delivered: u64,
    peak_live_tx: usize,
}

impl Actor<FleetEv> for GatewaySink {
    fn on_event(&mut self, now: Instant, _ev: FleetEv, ctx: &mut Ctx<'_, FleetEv>) {
        let got = self
            .ingest
            .drain_indications(ctx.medium, ctx.faults.as_deref_mut(), now);
        ctx.telemetry
            .inc("mac.mcps_data.indication", &[], got.len() as u64);
        self.delivered += got.len() as u64;
        ctx.emit("poll_delivered", got.len() as u64);
        // Everyone else is transmit-only: waive the history so the
        // bounded medium can retire it.
        ctx.medium.release_all(now);
        self.peak_live_tx = self.peak_live_tx.max(ctx.medium.live_tx_count());
        if let Some(next) = self.train.next(now) {
            ctx.schedule(next, ctx.self_id(), FleetEv::Poll);
        }
    }
}

/// One dry wake-transmit cycle's energy for the fleet's reading, mJ
/// (deterministic, so the fleet's transmit energy is `beacons × this`).
fn per_beacon_energy_mj() -> f64 {
    let mut medium = Medium::new(ChannelModel::default(), 0);
    let radio = medium.attach(RadioConfig::default());
    let mut inj = Injector::new(DeviceIdentity::new(1), Instant::ZERO);
    let rep = inj.inject(&mut medium, radio, &BeaconFleet::READING);
    let (from, to) = rep.tx_window();
    energy_mj(inj.trace(), &inj.model(), from, to)
}

/// Run a fleet through the kernel, all uplinks routed through the MAC
/// service layer.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    assert!(cfg.devices >= 1);
    let mut kernel: Kernel<FleetEv> = Kernel::new(ChannelModel::default(), cfg.seed);

    let gw_radio = kernel.medium_mut().attach(RadioConfig::default());
    let end = Instant::ZERO + cfg.duration;
    let train = PollTrain::new(cfg.poll_every, end + cfg.period);

    let mut fleet = BeaconFleet::new(kernel.medium_mut(), cfg.period, end);
    for i in 0..cfg.devices {
        let angle = i as f64 / cfg.devices as f64 * std::f64::consts::TAU;
        let radio = kernel.medium_mut().attach(RadioConfig {
            position_m: (cfg.radius_m * angle.cos(), cfg.radius_m * angle.sin()),
            ..Default::default()
        });
        fleet.push_device(i as u32 + 1, radio);
    }
    // Stagger wakes uniformly across one period, scheduled as one
    // batched train into an event-queue run lane.
    let (start, stagger) = fleet.wake_train();
    let fleet: ActorId = kernel.add_actor(fleet);
    kernel.schedule_batch(
        start,
        stagger,
        fleet,
        (0..cfg.devices as u32).map(FleetEv::Wake),
    );
    let gw = kernel.add_actor(GatewaySink {
        ingest: GatewayIngest::new(gw_radio, Gateway::new()),
        train,
        delivered: 0,
        peak_live_tx: 0,
    });

    kernel.schedule(train.first(), gw, FleetEv::Poll);

    kernel.run();

    let beacons_sent = kernel.remove_actor::<BeaconFleet>(fleet).total_sent();
    let sink = kernel.remove_actor::<GatewaySink>(gw);
    let stats = sink.ingest.gateway().stats();
    FleetReport {
        devices: cfg.devices,
        beacons_sent,
        messages_delivered: sink.delivered,
        bad_fcs: stats.bad_fcs,
        peak_live_tx: sink.peak_live_tx,
        retired_tx: kernel.medium().retired_tx_count(),
        tx_energy_mj: per_beacon_energy_mj() * beacons_sent as f64,
        sim_end: kernel.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_delivers_with_bounded_medium() {
        let report = run_fleet(&FleetConfig::smoke(42));
        // 200 devices × ~20 periods (late-staggered devices fit one
        // fewer wake before the end).
        assert!(
            report.beacons_sent >= 200 * 19 && report.beacons_sent <= 200 * 20,
            "{report:?}"
        );
        // Close range, no faults: the vast majority delivers.
        assert!(report.delivery_ratio() > 0.9, "{report:?}");
        // The bounded-memory witness: the medium never held anywhere
        // near the full history.
        assert!(
            report.peak_live_tx < report.beacons_sent as usize / 4,
            "peak_live_tx {} vs {} sent",
            report.peak_live_tx,
            report.beacons_sent
        );
        assert!(report.retired_tx > 0);
        assert!(report.tx_energy_mj > 0.0);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let a = run_fleet(&FleetConfig::smoke(7));
        let b = run_fleet(&FleetConfig::smoke(7));
        assert_eq!(a, b);
    }

    /// The smoke world's report, in full: the beacon count, delivery,
    /// bounded-medium witnesses and closed-form energy are pinned, so a
    /// change to how the fleet wakes, renders or transmits shows here.
    #[test]
    fn sap_fleet_matches_direct_runner() {
        let direct = FleetReport {
            devices: 200,
            beacons_sent: 3997,
            messages_delivered: 3997,
            bad_fcs: 0,
            peak_live_tx: 1,
            retired_tx: 3996,
            tx_energy_mj: 339.513174,
            sim_end: Instant::from_secs(630),
        };
        assert_eq!(run_fleet(&FleetConfig::smoke(42)), direct);
    }
}
