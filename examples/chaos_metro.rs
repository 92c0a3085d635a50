//! E13: chaos metro — the E11 deployment (8 gateways × 20,000 devices
//! × 1 simulated hour) driven through a five-phase infrastructure fault
//! campaign: two gateway crashes (checkpoint-restored and cold),
//! a backhaul partition with bounded store-and-forward, an aggregator
//! overload window, and an air-side radio outage, all on one unified
//! timeline.
//!
//! Prints cluster statistics with the extended conservation ledger, the
//! per-phase E13 table (delivery ratio, sheds, losses per fault
//! window), and crash-recovery timing. Numbers are recorded in
//! EXPERIMENTS.md E13.
//!
//! ```sh
//! cargo run --release --example chaos_metro [-- --capture chaos.wcap]
//! ```
//!
//! With `--capture PATH`, the raw per-lane frame stream — the *offered*
//! load, including frames a crashed lane never ingests — is recorded to
//! a `.wcap` file for daemon replay.

use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant as WallInstant;
use wile_gatewayd::capture::{capture_tap, finish_shared, metro_header, CaptureWriter};
use wile_scenarios::chaos::{run_chaos, ChaosConfig};
use wile_sim::engine::available_workers;
use wile_telemetry::Telemetry;

/// `--capture PATH` (the only accepted argument).
fn parse_capture_arg() -> Option<PathBuf> {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        None => None,
        Some("--capture") => Some(PathBuf::from(it.next().expect("--capture requires a path"))),
        Some(a) => panic!("unknown argument {a:?} (usage: chaos_metro [--capture PATH])"),
    }
}

/// Peak resident set size in MiB, if the platform exposes it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let cfg = ChaosConfig::metro(42);
    let workers = available_workers();
    println!(
        "chaos metro: {} gateways, {} devices, {} s simulated, {} fault phases, {} workers",
        cfg.metro.gateways,
        cfg.metro.devices,
        cfg.metro.duration.as_secs_f64(),
        cfg.infra.phases().len() + cfg.metro.faults.as_ref().map_or(0, |f| f.phases().len()),
        workers,
    );

    let capture = parse_capture_arg();
    let t0 = WallInstant::now();
    let mut tel = Telemetry::new();
    let writer = capture.as_ref().map(|p| {
        let file = BufWriter::new(File::create(p).expect("create capture file"));
        Rc::new(RefCell::new(CaptureWriter::new(
            file,
            &metro_header(&cfg.metro),
        )))
    });
    let report = run_chaos(&cfg, workers, &mut tel, writer.as_ref().map(capture_tap));
    let wall = t0.elapsed();
    if let (Some(w), Some(p)) = (writer, capture) {
        let (_, frames) = finish_shared(w).expect("flush capture");
        println!(
            "capture             {:>12} frames -> {}",
            frames,
            p.display()
        );
    }

    let stats = &report.metro.stats;
    println!(
        "beacons sent        {:>12}\n\
         gateway hears       {:>12}  ({:.2}× coverage overlap)\n\
         delivered           {:>12}  ({:.2}% of beacons, at most once)\n\
         dedup suppressions  {:>12}\n\
         queue drops         {:>12}\n\
         shed                {:>12}  (partition retry + overload admission)\n\
         lost in crash       {:>12}\n\
         crashes / restarts  {:>7} / {:<4}\n\
         checkpoints taken   {:>12}\n\
         devices recovered   {:>12}  (orphan re-elections)\n\
         roaming handoffs    {:>12}\n\
         devices tracked     {:>12}\n\
         peak live tx        {:>12}\n\
         simulated end       {:>12}",
        report.metro.beacons_sent,
        stats.total_hears(),
        stats.total_hears() as f64 / report.metro.beacons_sent.max(1) as f64,
        stats.delivered,
        report.metro.delivery_ratio() * 100.0,
        stats.total_suppressions(),
        stats.total_drops(),
        stats.total_shed(),
        stats.total_lost_in_crash(),
        stats.lanes.iter().map(|l| l.crashes).sum::<u64>(),
        stats.lanes.iter().map(|l| l.restarts).sum::<u64>(),
        stats.checkpoints,
        stats.recovered,
        stats.handoffs,
        stats.devices_tracked,
        report.metro.peak_live_tx,
        report.metro.sim_end,
    );
    println!(
        "conservation        {:>12}  (delivered + suppressed + dropped + shed + lost == hears)",
        if stats.conserves_offered_load() {
            "ok"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "at-most-once        {:>12}  ({} duplicate deliveries)",
        if report.duplicate_deliveries == 0 {
            "ok"
        } else {
            "VIOLATED"
        },
        report.duplicate_deliveries,
    );

    println!("\nfault phases (poll-granularity attribution):");
    println!(
        "  {:<14} {:>9} {:>7} {:>7} {:>9} {:>10} {:>6} {:>6} {:>9}",
        "phase", "tag", "start", "end", "hears", "delivered", "shed", "lost", "delivery"
    );
    for p in &report.phases {
        println!(
            "  {:<14} {:>9} {:>6.0}s {:>6.0}s {:>9} {:>10} {:>6} {:>6} {:>8.1}%",
            p.label,
            p.tag,
            p.start.as_secs_f64(),
            p.end.as_secs_f64(),
            p.hears,
            p.delivered,
            p.shed,
            p.lost_in_crash,
            p.delivery_ratio() * 100.0,
        );
    }

    println!("\ncrash recovery:");
    for r in &report.recoveries {
        println!(
            "  lane {}: crashed {:.0}s, restarted {:.0}s ({}), first post-restart win {}",
            r.lane,
            r.crashed_at.as_secs_f64(),
            r.restarted_at.as_secs_f64(),
            if r.restored {
                "warm, from checkpoint"
            } else {
                "cold"
            },
            match r.recovery_after_restart() {
                Some(lag) => format!("+{:.0} s", lag.as_secs_f64()),
                None => "never".into(),
            },
        );
    }
    println!("lane events         {:>12}", report.lane_events.len());
    println!("delivery digest     {:#018x}", report.metro.delivery_digest);
    println!("wall clock          {:>12.2} s", wall.as_secs_f64());
    match peak_rss_mib() {
        Some(mib) => println!("peak RSS            {:>12.1} MiB", mib),
        None => println!("peak RSS            {:>12}", "(unavailable)"),
    }

    let tel_report = tel.report();
    println!("\n{}", tel_report.render_with_prof());
    println!("telemetry digest    {:#018x}", tel_report.digest());
}
