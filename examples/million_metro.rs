//! E14: the million-device metro — 100 gateways × 1,000,000 devices ×
//! 1 simulated hour, run twice (`WILE_WORKERS`-style worker counts 1
//! and 4) and checked digest-identical.
//!
//! This is the scale witness for the PR-7 machinery: the event queue's
//! run lanes + one fallback heap absorb a million-entry wake train in
//! one lane, the spatially
//! sharded medium keeps each gateway's inbox walk to its own
//! neighbourhood of the transmission stream, and the
//! structure-of-arrays fleet keeps per-device state to a few words.
//! Coverage is deliberately sparse (see
//! [`MetroConfig::million`]) — E14 measures scale and determinism, not
//! delivery ratio. Numbers are recorded in EXPERIMENTS.md E14.
//!
//! ```sh
//! cargo run --release --example million_metro
//! # scaled-down smoke (same assertions, ~seconds):
//! WILE_E14_DEVICES=50000 cargo run --release --example million_metro
//! # wall-clock split of both runs by layer:
//! WILE_PROF=1 cargo run --release --example million_metro
//! ```
//!
//! With `WILE_PROF=1` the example ends with the profile of both runs:
//! world build (`metro.build_world`), each poll's cluster step
//! (`metro.poll.cluster`, which contains each lane's medium drain,
//! `medium.take_inbox`, and gateway ingest, `lane.ingest`, and the
//! aggregation round, `cluster.aggregate`, with its `engine.*` fan-out)
//! and release (`metro.poll.release_all`). The rest of each run's wall
//! time is the device wakes and the event queue (run lanes + one
//! fallback heap).

use std::time::Instant as WallInstant;
use wile_scenarios::metro::{run_metro, MetroConfig, MetroReport};
use wile_telemetry::{prof_enabled, prof_report};

/// Peak resident set size in MiB, if the platform exposes it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn print_report(tag: &str, report: &MetroReport, wall_s: f64) {
    let stats = &report.stats;
    println!(
        "[workers={tag}] beacons {:>11}  hears {:>9}  delivered {:>9}  \
         peak live tx {:>6}  digest {:#018x}  wall {:>7.2} s",
        report.beacons_sent,
        stats.total_hears(),
        stats.delivered,
        report.peak_live_tx,
        report.delivery_digest,
        wall_s,
    );
    assert!(
        stats.conserves_offered_load(),
        "conservation law violated at workers={tag}"
    );
}

fn main() {
    // WILE_E14_DEVICES scales the grid point down (constant density via
    // `metro_scaled`) for CI smoke; the default is the full E14 config.
    let cfg = match std::env::var("WILE_E14_DEVICES") {
        Ok(v) => {
            let devices: usize = v.parse().expect("WILE_E14_DEVICES must be an integer");
            MetroConfig::metro_scaled(devices, 42)
        }
        Err(_) => MetroConfig::million(42),
    };
    println!(
        "million metro: {} gateways ({}×{} grid, {} m pitch), {} devices, {} s simulated",
        cfg.gateways,
        cfg.gw_cols,
        cfg.gateways.div_ceil(cfg.gw_cols),
        cfg.gw_spacing_m,
        cfg.devices,
        cfg.duration.as_secs_f64(),
    );

    // The determinism contract, executed: the same config at different
    // worker counts must produce byte-identical reports. Worker counts
    // here are explicit (not `available_workers`) so the witness is
    // independent of the host and of the WILE_WORKERS env var.
    let t0 = WallInstant::now();
    let single = run_metro(&cfg, 1);
    let wall_single = t0.elapsed().as_secs_f64();
    print_report("1", &single, wall_single);

    let t1 = WallInstant::now();
    let quad = run_metro(&cfg, 4);
    let wall_quad = t1.elapsed().as_secs_f64();
    print_report("4", &quad, wall_quad);

    assert_eq!(single, quad, "metro reports diverged between worker counts");
    println!(
        "worker identity     ok  (digest {:#018x} at workers=1 and workers=4)",
        single.delivery_digest
    );
    match peak_rss_mib() {
        Some(mib) => println!("peak RSS            {mib:>10.1} MiB"),
        None => println!("peak RSS            (unavailable)"),
    }
    if prof_enabled() {
        println!(
            "wall-clock profile (both runs, {:.2} s in all):",
            wall_single + wall_quad
        );
        print!("{}", prof_report());
    }
}
