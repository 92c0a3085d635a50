//! E14: the million-device metro — 100 gateways × 1,000,000 devices ×
//! 1 simulated hour, run three times in one process (`WILE_WORKERS`-style
//! worker counts 1, 4, then 1 again) and checked report-identical.
//! Each run prints its wall time; the A-B-A order lets the two
//! workers-1 runs bound how much of a workers-1/workers-4 gap is the
//! order the runs came in (a warmed heap, the host's drift) rather
//! than the worker count.
//!
//! This is the scale witness for the PR-7 machinery: the event queue's
//! run lanes + one fallback heap absorb a million-entry wake train in
//! one lane, the listener-major medium files each beacon with the
//! gateways in range when it is sent (a gateway's drain reads only its
//! own list, not its neighbourhood's whole transmission stream), and
//! the structure-of-arrays fleet keeps per-device state to a few words.
//! Coverage is deliberately sparse (see
//! [`MetroConfig::million`]) — E14 measures scale and determinism, not
//! delivery ratio. Numbers are recorded in EXPERIMENTS.md E14.
//!
//! ```sh
//! cargo run --release --example million_metro
//! # scaled-down smoke (same assertions, ~seconds):
//! WILE_E14_DEVICES=50000 cargo run --release --example million_metro
//! # wall-clock split of all three runs by layer:
//! WILE_PROF=1 cargo run --release --example million_metro
//! ```
//!
//! With `WILE_PROF=1` the example ends with the profile of all runs:
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
    let mut first: Option<MetroReport> = None;
    let mut wall_total = 0.0;
    for workers in [1, 4, 1] {
        let t = WallInstant::now();
        let report = run_metro(&cfg, workers);
        let wall = t.elapsed().as_secs_f64();
        wall_total += wall;
        print_report(&workers.to_string(), &report, wall);
        match &first {
            None => first = Some(report),
            Some(f) => assert_eq!(
                f, &report,
                "metro reports diverged between workers=1 and workers={workers}"
            ),
        }
    }
    let digest = first.expect("three runs").delivery_digest;
    println!("worker identity     ok  (digest {digest:#018x} at workers=1, 4 and 1)");
    match peak_rss_mib() {
        Some(mib) => println!("peak RSS            {mib:>10.1} MiB"),
        None => println!("peak RSS            (unavailable)"),
    }
    if prof_enabled() {
        println!("wall-clock profile (all three runs, {wall_total:.2} s in all):");
        print!("{}", prof_report());
    }
}
