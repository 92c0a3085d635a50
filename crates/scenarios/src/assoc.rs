//! Netstack association scenario: a fleet of duty-cycled WiFi clients
//! re-associating on a *shared* medium, driven by the `wile-sim` kernel.
//!
//! The Table 1 WiFi-DC row ([`crate::wifi_dc`]) runs one client against
//! one AP on a private medium. This scenario puts N duty-cycled clients
//! on one kernel medium and replays the full `wile-netstack` handshake
//! (probe → auth → assoc → 4-way WPA2 → DHCP → ARP → data, every frame
//! on the simulated air) each time a [`WifiDutyCycleActor`] wakes. Each
//! wake is one MLME-ASSOCIATE.request on a single-station
//! [`WifiMac`] — the `wile-mac` service layer's WiFi backend — and the
//! confirm carries the attempt's frame and energy accounting.
//!
//! A full association is a *synchronous multi-transmission exchange* —
//! the handshake issues dozens of time-ordered transmits over ~1.5 s of
//! simulated time — and [`wile_radio::Medium`] requires globally
//! non-decreasing transmit starts. The kernel's **air lease**
//! ([`Ctx::reserve_air`]) is what makes several such actors compose: a
//! waking actor that finds the air leased defers its whole wake to the
//! lease end instead of interleaving, then publishes its own occupancy.
//! The deferral count is reported — it is the §3.1 story in miniature:
//! duty-cycled WiFi clients queue behind each other's chatty handshakes,
//! while Wi-LE's one-beacon uplink has nothing to queue behind.

use wile_dot11::MacAddr;
use wile_mac::{AirCtx, MlmeAssociateRequest, WifiMac};
use wile_netstack::ap::AccessPoint;
use wile_netstack::connect::ConnectConfig;
use wile_radio::medium::RadioConfig;
use wile_radio::time::{Duration, Instant};
use wile_sim::{Actor, Ctx, Kernel};

/// Configuration of an association-fleet run.
#[derive(Debug, Clone)]
pub struct AssocConfig {
    /// Number of duty-cycled stations (each with its own AP, all on one
    /// channel and one medium).
    pub stations: usize,
    /// Wake cycles per station.
    pub cycles: usize,
    /// Per-station wake period (from the end of the previous wake).
    pub period: Duration,
    /// Initial stagger between stations. Below one association's
    /// duration (~1.5 s) wakes contend for the air and defer.
    pub spacing: Duration,
    /// Medium seed.
    pub seed: u64,
}

impl AssocConfig {
    /// A small contended fleet: three stations whose staggered wakes
    /// overlap each other's handshakes.
    pub fn contended(seed: u64) -> Self {
        AssocConfig {
            stations: 3,
            cycles: 2,
            period: Duration::from_secs(30),
            spacing: Duration::from_ms(300),
            seed,
        }
    }
}

/// What an association-fleet run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct AssocReport {
    /// Fleet size.
    pub stations: usize,
    /// Association attempts actually run (deferrals excluded).
    pub attempts: u64,
    /// Attempts that completed the full sequence and delivered data.
    pub connected: u64,
    /// Wakes that found the air leased and postponed to the lease end.
    pub deferrals: u64,
    /// MAC-layer frames across the fleet (the paper's "at least 20 per
    /// association" population).
    pub mac_frames: u64,
    /// Higher-layer frames (DHCP, ARP, sensor data).
    pub higher_layer_frames: u64,
    /// Total client-side energy across all attempts, mJ.
    pub energy_mj: f64,
    /// Simulated end time.
    pub sim_end: Instant,
}

/// The only event: a station wakes to (re-)associate and transmit.
struct WakeEv;

/// One duty-cycled WiFi client plus its AP behind a single-station
/// [`WifiMac`]: on every wake it issues MLME-ASSOCIATE (the backend
/// boots a fresh supplicant, runs the full handshake through the shared
/// medium, sends one reading, and deep-sleeps) — deferring first if
/// another station's exchange holds the air lease.
pub struct WifiDutyCycleActor {
    mac: WifiMac,
    index: u32,
    period: Duration,
    cycles_left: usize,
    attempts: u64,
    connected: u64,
    deferrals: u64,
    mac_frames: u64,
    higher_layer_frames: u64,
    energy_mj: f64,
}

impl Actor<WakeEv> for WifiDutyCycleActor {
    fn on_event(&mut self, now: Instant, _ev: WakeEv, ctx: &mut Ctx<'_, WakeEv>) {
        // Another station's handshake still owns the air: postpone the
        // whole wake past it rather than interleave transmissions.
        let lease = ctx.air_reserved_until();
        if now < lease {
            self.deferrals += 1;
            ctx.emit("deferred", lease.since(now).as_us());
            let me = ctx.self_id();
            ctx.schedule(lease, me, WakeEv);
            return;
        }

        let confirm = {
            let mut air = AirCtx {
                medium: &mut *ctx.medium,
                now,
                actor: self.index,
                telemetry: &mut *ctx.telemetry,
            };
            self.mac
                .mlme_associate(&mut air, MlmeAssociateRequest { device: 0 })
        };
        // Publish our occupancy so peers waking mid-exchange defer.
        ctx.reserve_air(confirm.t_sleep);

        self.attempts += 1;
        if confirm.connected {
            self.connected += 1;
        }
        self.mac_frames += confirm.mac_frames;
        self.higher_layer_frames += confirm.higher_layer_frames;
        self.energy_mj += confirm.energy_mj;
        ctx.emit("associated", confirm.connected as u64);

        self.cycles_left -= 1;
        if self.cycles_left > 0 {
            let me = ctx.self_id();
            ctx.schedule(now + self.period, me, WakeEv);
        }
    }
}

/// Run an association fleet through the kernel, every attempt routed
/// through the MAC service layer.
pub fn run_assoc_fleet(cfg: &AssocConfig) -> AssocReport {
    assert!(cfg.stations >= 1 && cfg.cycles >= 1);
    let mut kernel: Kernel<WakeEv> = Kernel::new(Default::default(), cfg.seed);

    let mut ids = Vec::with_capacity(cfg.stations);
    for i in 0..cfg.stations {
        // Each client sits a metre from its own AP (the paper's bench
        // geometry); pairs are spread out but share the channel.
        let x = i as f64 * 20.0;
        let sta_radio = kernel.medium_mut().attach(RadioConfig {
            position_m: (x, 0.0),
            ..Default::default()
        });
        let ap_radio = kernel.medium_mut().attach(RadioConfig {
            position_m: (x, 1.0),
            ..Default::default()
        });
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, i as u8 + 1]);
        let sta_mac = MacAddr::new([0x02, 0, 0, 0, 0, i as u8 + 1]);
        let mut mac = WifiMac::new();
        mac.push_station(
            sta_radio,
            ap_radio,
            AccessPoint::new(b"HomeNet", "hunter22", ap_mac, 6),
            sta_mac,
            "hunter22",
            ConnectConfig::default(),
            cfg.seed as u32 ^ ((i as u32) << 16),
        );
        let id = kernel.add_actor(WifiDutyCycleActor {
            mac,
            index: i as u32,
            period: cfg.period,
            cycles_left: cfg.cycles,
            attempts: 0,
            connected: 0,
            deferrals: 0,
            mac_frames: 0,
            higher_layer_frames: 0,
            energy_mj: 0.0,
        });
        ids.push(id);
    }
    for (i, &id) in ids.iter().enumerate() {
        kernel.schedule(
            Instant::from_ms(100) + cfg.spacing.mul(i as u64),
            id,
            WakeEv,
        );
    }
    kernel.run();

    let mut report = AssocReport {
        stations: cfg.stations,
        attempts: 0,
        connected: 0,
        deferrals: 0,
        mac_frames: 0,
        higher_layer_frames: 0,
        energy_mj: 0.0,
        sim_end: kernel.now(),
    };
    for &id in &ids {
        let a = kernel.remove_actor::<WifiDutyCycleActor>(id);
        report.attempts += a.attempts;
        report.connected += a.connected;
        report.deferrals += a.deferrals;
        report.mac_frames += a.mac_frames;
        report.higher_layer_frames += a.higher_layer_frames;
        report.energy_mj += a.energy_mj;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_fleet_defers_and_still_connects() {
        let report = run_assoc_fleet(&AssocConfig::contended(42));
        // 3 stations × 2 cycles, every attempt completes.
        assert_eq!(report.attempts, 6, "{report:?}");
        assert_eq!(report.connected, 6, "{report:?}");
        // 300 ms stagger < ~1.5 s handshake: later stations must have
        // deferred behind the first one's lease.
        assert!(report.deferrals >= 2, "{report:?}");
        // §3.1: at least 20 MAC frames per association.
        assert!(report.mac_frames >= 20 * report.attempts, "{report:?}");
        // Each attempt costs a Table 1-scale association (~240 mJ).
        let per_attempt = report.energy_mj / report.attempts as f64;
        assert!(
            (150.0..=320.0).contains(&per_attempt),
            "energy/attempt {per_attempt} mJ"
        );
    }

    #[test]
    fn uncontended_fleet_never_defers() {
        let cfg = AssocConfig {
            spacing: Duration::from_secs(5),
            ..AssocConfig::contended(7)
        };
        let report = run_assoc_fleet(&cfg);
        assert_eq!(report.deferrals, 0, "{report:?}");
        assert_eq!(report.connected, 6);
    }

    #[test]
    fn assoc_fleet_is_deterministic() {
        let a = run_assoc_fleet(&AssocConfig::contended(9));
        let b = run_assoc_fleet(&AssocConfig::contended(9));
        assert_eq!(a, b);
    }

    /// The contended world's report, in full: attempts, deferrals,
    /// frame counts and energy are pinned, so a change to how a wake
    /// drives MLME-ASSOCIATE shows here.
    #[test]
    fn sap_fleet_matches_direct_runner() {
        let direct = AssocReport {
            stations: 3,
            attempts: 6,
            connected: 6,
            deferrals: 3,
            mac_frames: 162,
            higher_layer_frames: 48,
            energy_mj: 1415.5814970000001,
            sim_end: Instant::from_us(33_291_826),
        };
        assert_eq!(run_assoc_fleet(&AssocConfig::contended(42)), direct);
    }
}
