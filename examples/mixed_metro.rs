//! E15: the mixed-protocol metro — one medium simultaneously carrying
//! Wi-LE beacons, BLE advertising trains, and WiFi migrants, run twice
//! (worker counts 1 and 4) and checked digest-identical.
//!
//! This is the payoff witness for the MAC service layer: three
//! protocol backends speaking one set of primitives share one hall of air,
//! composed by the kernel air lease, and mid-run a set of devices
//! migrates Wi-LE → WiFi through MLME-SCAN + MLME-ASSOCIATE alone.
//! Numbers are recorded in EXPERIMENTS.md E15.
//!
//! ```sh
//! cargo run --release --example mixed_metro
//! # scaled-up / scaled-down smoke (same assertions):
//! WILE_E15_DEVICES=200 cargo run --release --example mixed_metro
//! ```

use std::time::Instant as WallInstant;
use wile_scenarios::mixed::{run_mixed, MixedConfig, MixedReport};

fn print_report(tag: &str, report: &MixedReport, wall_s: f64) {
    println!(
        "[workers={tag}] wile beacons {:>8}  delivered {:>8}  ble events {:>7}  \
         indications {:>7}  migrations {}/{}  wifi data {:>5}  deferrals {:>5}  wall {:>6.2} s",
        report.wile_beacons,
        report.stats.delivered,
        report.ble_events,
        report.ble_indications,
        report.migrations,
        report.migrants,
        report.migrant_wifi_data,
        report.deferrals,
        wall_s,
    );
    assert!(
        report.stats.conserves_offered_load(),
        "conservation law violated at workers={tag}"
    );
}

fn main() {
    // WILE_E15_DEVICES scales the Wi-LE fleet (BLE advertisers and
    // migrants ride along proportionally); the default is the smoke
    // geometry from `MixedConfig::smoke`.
    let cfg = match std::env::var("WILE_E15_DEVICES") {
        Ok(v) => {
            let devices: usize = v.parse().expect("WILE_E15_DEVICES must be an integer");
            MixedConfig::scaled(devices, 42)
        }
        Err(_) => MixedConfig::smoke(42),
    };
    println!(
        "mixed metro: {} gateways + 3 BLE scanners, {} Wi-LE + {} BLE + {} migrating devices, \
         {} s simulated (migration at {})",
        cfg.gateways,
        cfg.wile_devices,
        cfg.ble_devices,
        cfg.migrants,
        cfg.duration.as_secs_f64(),
        cfg.t_migrate,
    );

    // The determinism contract, executed: worker counts are explicit
    // (not `available_workers`) so the witness is independent of the
    // host and of the WILE_WORKERS env var.
    let t0 = WallInstant::now();
    let single = run_mixed(&cfg, 1);
    let wall_single = t0.elapsed().as_secs_f64();
    print_report("1", &single, wall_single);

    let t1 = WallInstant::now();
    let quad = run_mixed(&cfg, 4);
    let wall_quad = t1.elapsed().as_secs_f64();
    print_report("4", &quad, wall_quad);

    assert_eq!(single, quad, "mixed reports diverged between worker counts");
    assert_eq!(
        single.migrations, cfg.migrants as u64,
        "every migrant must complete its MLME association"
    );
    assert!(single.ble_indications > 0, "scanners decoded nothing");
    println!(
        "worker identity     ok  (wile digest {:#018x}, ble digest {:#018x})",
        single.delivery_digest, single.ble_digest
    );
}
