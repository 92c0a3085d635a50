//! PR-2 performance harness: the three hot paths this PR optimised,
//! measured head-to-head against their reference implementations, with
//! the numbers written to `BENCH_2.json` at the repo root so CI and
//! EXPERIMENTS.md share one machine-readable source.
//!
//! * `medium_poll` — a 50-device fleet hammering one gateway inbox:
//!   the indexed [`Medium`] vs the retained [`NaiveMedium`] reference
//!   (full-log scans, unbounded memory). Both produce the same frames;
//!   the harness asserts it before timing.
//! * `campaign` — the PR-1 fault campaign across three seeds, serial
//!   vs fanned through the deterministic run engine.
//! * `waveform` — memory of the Figure-3a piecewise-constant waveform
//!   vs the dense 50 kS/s vector it replaced.
//!
//! The PR-4 `cluster` section measures multi-gateway cluster-ingest
//! throughput (the `wile-cluster` pipeline under the metro scenario)
//! over a gateways × devices grid and writes `BENCH_4.json` alongside.
//!
//! The PR-8 `sap` section times the E15 mixed-protocol metro the MAC
//! service layer enables, written to `BENCH_8.json`.
//!
//! The PR-9 `gatewayd` section prices the ingestion service: sustained
//! frames/s through the real loopback TCP transport (feeder → framed
//! codec → daemon → cluster pipeline, digest asserted byte-identical
//! to the in-process metro before timing) and the 10×-admission
//! overload point with exact tail-drop accounting, written to
//! `BENCH_9.json`.
//!
//! `WILE_BENCH_FAST=1` shrinks the workloads for CI smoke runs; the
//! JSON notes which mode produced it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use wile::beacon::BeaconTemplate;
use wile::registry::DeviceIdentity;
use wile::reliability::{AdaptiveConfig, EnergyBudget, RepeatPolicy};
use wile_cluster::{split_unified, ClusterDisturbance, PartitionPolicy, UnifiedPhase};
use wile_dot11::mac::SeqControl;
use wile_gatewayd::capture::{capture_metro, replay_capture};
use wile_gatewayd::daemon::{Daemon, DaemonOptions};
use wile_gatewayd::feeder::{feed_capture, Pace};
use wile_gatewayd::{GatewaydConfig, GatewaydCore, GatewaydReport};
use wile_radio::medium::{Medium, RadioConfig, RadioId, RxFrame, TxParams};
use wile_radio::naive::NaiveMedium;
use wile_radio::time::{Duration, Instant};
use wile_scenarios::campaign::{run_campaign, AdaptMode, CampaignConfig, CampaignReport};
use wile_scenarios::chaos::{run_chaos, ChaosConfig};
use wile_scenarios::fig3;
use wile_scenarios::metro::{run_metro, run_metro_with_telemetry, MetroConfig};
use wile_scenarios::mixed::{run_mixed, MixedConfig};
use wile_telemetry::{Json, Telemetry};

fn fast() -> bool {
    std::env::var("WILE_BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// 50 devices on a circle, one gateway at the origin.
fn fleet_positions() -> Vec<(f64, f64)> {
    (0..50)
        .map(|i| {
            let a = i as f64 / 50.0 * std::f64::consts::TAU;
            (3.0 * a.cos(), 3.0 * a.sin())
        })
        .collect()
}

const PARAMS: TxParams = TxParams {
    airtime: Duration::from_us(60),
    power_dbm: 0.0,
    min_snr_db: 10.0,
};

/// Drive `frames` transmissions through the indexed medium, polling the
/// gateway every 64 frames (then releasing every radio to the poll, so
/// retirement can reclaim the log). Returns total frames delivered.
fn drive_indexed(frames: usize) -> usize {
    let mut m = Medium::new(Default::default(), 7);
    m.retire_consumed(true);
    let gw = m.attach(RadioConfig::default());
    let devs: Vec<_> = fleet_positions()
        .into_iter()
        .map(|position_m| {
            m.attach(RadioConfig {
                position_m,
                ..Default::default()
            })
        })
        .collect();
    let mut t = Instant::ZERO;
    let mut got = 0;
    for k in 0..frames {
        m.transmit(devs[k % devs.len()], t, PARAMS, vec![0xA5; 48]);
        t += Duration::from_us(200);
        if k % 64 == 63 {
            got += m.take_inbox(gw, t).len();
            m.release_all(t);
        }
    }
    got + m.take_inbox(gw, t + Duration::from_ms(1)).len()
}

/// The identical workload on the retained reference implementation.
fn drive_naive(frames: usize) -> usize {
    let mut m = NaiveMedium::new(Default::default(), 7);
    let gw = m.attach(RadioConfig::default());
    let devs: Vec<_> = fleet_positions()
        .into_iter()
        .map(|position_m| {
            m.attach(RadioConfig {
                position_m,
                ..Default::default()
            })
        })
        .collect();
    let mut t = Instant::ZERO;
    let mut got = 0;
    for k in 0..frames {
        m.transmit(devs[k % devs.len()], t, PARAMS, vec![0xA5; 48]);
        t += Duration::from_us(200);
        if k % 64 == 63 {
            got += m.take_inbox(gw, t).len();
        }
    }
    got + m.take_inbox(gw, t + Duration::from_ms(1)).len()
}

fn feedback_mode() -> AdaptMode {
    AdaptMode::Feedback {
        cfg: AdaptiveConfig {
            target_delivery: 0.9,
            base: RepeatPolicy::SINGLE,
            budget: EnergyBudget {
                per_message_uj_ceiling: 800.0,
                per_copy_uj: 100.0,
            },
            backoff_step: Duration::from_secs(1),
            max_backoff: Duration::from_secs(8),
        },
        every: 2,
    }
}

/// Median wall-clock seconds of `reps` runs of `f` (the returned `u64`
/// is folded into a sink so the work cannot be optimised away).
fn median_s<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        sink ^= f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    black_box(sink);
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn bench_perf(c: &mut Criterion) {
    let fast = fast();
    let frames = if fast { 2_000 } else { 20_000 };
    let reps = if fast { 1 } else { 3 };

    // --- medium poll: indexed vs naive, same frames delivered --------
    wile_bench::banner("medium poll (50-device fleet)");
    let expect = drive_naive(frames);
    assert_eq!(
        drive_indexed(frames),
        expect,
        "indexed medium diverged from reference"
    );
    let naive_s = median_s(reps, || drive_naive(frames) as u64);
    let indexed_s = median_s(reps, || drive_indexed(frames) as u64);
    let naive_ns = naive_s / frames as f64 * 1e9;
    let indexed_ns = indexed_s / frames as f64 * 1e9;
    println!(
        "naive {naive_ns:.0} ns/frame, indexed {indexed_ns:.0} ns/frame \
         ({:.1}x, {frames} frames, {expect} delivered)",
        naive_ns / indexed_ns
    );

    // --- campaign: serial vs engine-parallel -------------------------
    wile_bench::banner("fault campaign (3 seeds)");
    let cfgs: Vec<CampaignConfig> = [42u64, 7, 9]
        .iter()
        .map(|&seed| CampaignConfig::demo(seed, feedback_mode()))
        .collect();
    let workers = wile_sim::engine::available_workers();
    let run_all = |workers| -> u64 {
        let reports: Vec<CampaignReport> = wile_sim::engine::run_cells(cfgs.len(), workers, |i| {
            run_campaign(&cfgs[i], &mut Telemetry::off())
        });
        reports
            .iter()
            .map(|r| r.delivery_ratio().to_bits())
            .fold(0u64, |a, b| a ^ b)
    };
    let serial_s = median_s(reps, || run_all(1));
    let parallel_s = median_s(reps, || run_all(workers));
    println!(
        "serial {serial_s:.3} s, parallel {parallel_s:.3} s \
         ({:.2}x on {workers} workers)",
        serial_s / parallel_s
    );

    // --- waveform memory ---------------------------------------------
    wile_bench::banner("waveform memory (Figure 3a)");
    let wf = fig3::fig3a().waveform;
    let seg_bytes = wf.memory_bytes();
    let dense_bytes = wf.dense_memory_bytes(50_000);
    println!(
        "{} segments, {seg_bytes} B vs dense {dense_bytes} B ({:.0}x)",
        wf.segment_count(),
        dense_bytes as f64 / seg_bytes as f64
    );

    // --- criterion-visible timings (same workloads, smaller) ---------
    let mut g = c.benchmark_group("perf");
    g.sample_size(10);
    let small = frames / 10;
    g.bench_function("medium_poll_naive", |b| {
        b.iter(|| black_box(drive_naive(small)))
    });
    g.bench_function("medium_poll_indexed", |b| {
        b.iter(|| black_box(drive_indexed(small)))
    });
    g.finish();

    // --- machine-readable record -------------------------------------
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"pr\": 2,\n  \"fast_mode\": {fast},\n  \"host_cores\": {host_cores},\n  \
         \"note\": \"parallel speedup is bounded by host_cores; on a 1-core host the engine \
         degrades gracefully to ~serial wall-clock with identical output\",\n  \
         \"medium_poll\": {{\n    \"frames\": {frames},\n    \"devices\": 50,\n    \
         \"naive_ns_per_frame\": {naive_ns:.1},\n    \"indexed_ns_per_frame\": {indexed_ns:.1},\n    \
         \"speedup\": {:.2}\n  }},\n  \
         \"campaign\": {{\n    \"cells\": {},\n    \"workers\": {workers},\n    \
         \"serial_s\": {serial_s:.4},\n    \"parallel_s\": {parallel_s:.4},\n    \
         \"speedup\": {:.2}\n  }},\n  \
         \"waveform\": {{\n    \"segments\": {},\n    \"segment_bytes\": {seg_bytes},\n    \
         \"dense_bytes_50ksps\": {dense_bytes},\n    \"compression\": {:.0}\n  }}\n}}\n",
        naive_ns / indexed_ns,
        cfgs.len(),
        serial_s / parallel_s,
        wf.segment_count(),
        dense_bytes as f64 / seg_bytes as f64,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_2.json");
    std::fs::write(path, &json).expect("write BENCH_2.json");
    println!("\nwrote {path}");
}

/// One metro cell for the cluster-ingest grid: `gateways` on a row-
/// capped grid, `devices` beaconing every 10 s for a simulated minute.
fn cluster_cell(gateways: usize, devices: usize) -> MetroConfig {
    MetroConfig {
        gateways,
        gw_cols: gateways.min(4),
        devices,
        period: Duration::from_secs(10),
        duration: Duration::from_secs(60),
        poll_every: Duration::from_secs(5),
        keep_deliveries: false,
        ..MetroConfig::metro(42)
    }
}

fn bench_cluster(c: &mut Criterion) {
    let fast = fast();
    let reps = if fast { 1 } else { 3 };
    let grid: Vec<(usize, usize)> = if fast {
        vec![(2, 200), (4, 200)]
    } else {
        vec![(2, 500), (4, 500), (8, 500), (4, 2_000), (8, 2_000)]
    };
    let workers = wile_sim::engine::available_workers();

    wile_bench::banner("cluster ingest (gateways × devices grid)");
    let mut rows = Vec::new();
    for &(gateways, devices) in &grid {
        let cfg = cluster_cell(gateways, devices);
        let probe = run_metro(&cfg, workers);
        assert!(probe.stats.conserves_offered_load());
        let hears = probe.stats.total_hears();
        let delivered = probe.stats.delivered;
        let cell_s = median_s(reps, || run_metro(&cfg, workers).delivery_digest);
        let frames_per_s = hears as f64 / cell_s;
        println!(
            "{gateways} gw × {devices:>5} dev: {hears:>8} hears, {delivered:>7} delivered, \
             {cell_s:.3} s ({frames_per_s:.0} frames/s)"
        );
        rows.push(format!(
            "    {{ \"gateways\": {gateways}, \"devices\": {devices}, \"hears\": {hears}, \
             \"delivered\": {delivered}, \"wall_s\": {cell_s:.4}, \
             \"frames_per_s\": {frames_per_s:.0} }}"
        ));
    }

    // Criterion-visible timing for the smallest cell.
    let small = cluster_cell(2, if fast { 100 } else { 200 });
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    g.bench_function("metro_ingest_2gw", |b| {
        b.iter(|| black_box(run_metro(&small, workers).delivery_digest))
    });
    g.finish();

    let json = format!(
        "{{\n  \"pr\": 4,\n  \"fast_mode\": {fast},\n  \"workers\": {workers},\n  \
         \"note\": \"cluster-ingest throughput over a gateways x devices grid; frames/s counts \
         gateway hears (post per-gateway dedup) pushed through queues, election and roaming; \
         results are byte-identical at any worker count\",\n  \"grid\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_4.json");
    std::fs::write(path, &json).expect("write BENCH_4.json");
    println!("\nwrote {path}");
}

fn bench_telemetry(c: &mut Criterion) {
    let fast = fast();
    let reps = if fast { 1 } else { 3 };
    let workers = wile_sim::engine::available_workers();
    // Full mode times the E11/E12 metro configuration (PR-4's 13 s
    // baseline); fast mode shrinks it for the CI smoke run.
    let cfg = if fast {
        cluster_cell(4, 500)
    } else {
        MetroConfig::metro(42)
    };

    wile_bench::banner("telemetry overhead (metro, off vs on)");
    // Differential witness before timing: observation changes nothing.
    let plain = run_metro(&cfg, workers);
    let mut probe_tel = Telemetry::new();
    let observed = run_metro_with_telemetry(&cfg, workers, &mut probe_tel);
    assert_eq!(
        plain.delivery_digest, observed.delivery_digest,
        "telemetry steered the run"
    );
    let tel_digest = probe_tel.report().digest();
    let instruments = probe_tel.registry().len();

    let off_s = median_s(reps, || run_metro(&cfg, workers).delivery_digest);
    let on_s = median_s(reps, || {
        let mut tel = Telemetry::new();
        let digest = run_metro_with_telemetry(&cfg, workers, &mut tel).delivery_digest;
        digest ^ tel.report().digest()
    });
    let overhead_pct = (on_s / off_s - 1.0) * 100.0;
    println!(
        "off {off_s:.3} s, on {on_s:.3} s ({overhead_pct:+.2}% overhead, \
         {instruments} instruments, snapshot digest {tel_digest:#018x})"
    );

    // Criterion-visible pair on a small cell.
    let small = cluster_cell(2, if fast { 100 } else { 200 });
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(10);
    g.bench_function("metro_telemetry_off", |b| {
        b.iter(|| black_box(run_metro(&small, workers).delivery_digest))
    });
    g.bench_function("metro_telemetry_on", |b| {
        b.iter(|| {
            let mut tel = Telemetry::new();
            black_box(run_metro_with_telemetry(&small, workers, &mut tel).delivery_digest)
        })
    });
    g.finish();

    // Sample run trace: a traced fault campaign, exported as the
    // schema-versioned JSONL artifact CI uploads alongside the numbers.
    let mut tel = Telemetry::with_trace();
    run_campaign(&CampaignConfig::demo(42, feedback_mode()), &mut tel);
    let jsonl = tel.trace().to_jsonl();
    let trace_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_E12.jsonl");
    std::fs::write(trace_path, &jsonl).expect("write TRACE_E12.jsonl");

    let json = Json::obj()
        .field("pr", Json::int(5))
        .field("fast_mode", Json::Bool(fast))
        .field("workers", Json::int(workers as u64))
        .field(
            "note",
            Json::str(
                "telemetry overhead on the metro scenario: identical runs with the collector \
                 disabled vs enabled (metrics on, trace off); the delivery digest is asserted \
                 identical before timing and the snapshot digest is worker-count independent",
            ),
        )
        .field(
            "metro",
            Json::obj()
                .field("gateways", Json::int(cfg.gateways as u64))
                .field("devices", Json::int(cfg.devices as u64))
                .field("sim_secs", Json::Num(cfg.duration.as_secs_f64()))
                .field("off_wall_s", Json::Num((off_s * 1e4).round() / 1e4))
                .field("on_wall_s", Json::Num((on_s * 1e4).round() / 1e4))
                .field(
                    "overhead_pct",
                    Json::Num((overhead_pct * 100.0).round() / 100.0),
                )
                .field("instruments", Json::int(instruments as u64))
                .field("snapshot_digest", Json::str(format!("{tel_digest:#018x}"))),
        )
        .field(
            "trace",
            Json::obj()
                .field("path", Json::str("TRACE_E12.jsonl"))
                .field("events", Json::int(tel.trace().len() as u64)),
        );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    std::fs::write(path, json.render() + "\n").expect("write BENCH_5.json");
    println!(
        "wrote {path} and {trace_path} ({} trace events)",
        tel.trace().len()
    );
}

/// A fault campaign scaled to the 60 s `cluster_cell` world, for fast
/// mode: a checkpoint-covered crash and an overload window.
fn chaos_cell(gateways: usize, devices: usize) -> ChaosConfig {
    let mut metro = cluster_cell(gateways, devices);
    let (air, infra) = split_unified(
        vec![
            UnifiedPhase::infra(
                Instant::from_secs(10),
                Instant::from_secs(30),
                ClusterDisturbance::LaneCrash { lane: 0 },
                "crash",
            ),
            UnifiedPhase::infra(
                Instant::from_secs(35),
                Instant::from_secs(50),
                ClusterDisturbance::AggregatorOverload {
                    admit_per_round: devices / 2,
                },
                "overload",
            ),
        ],
        42,
    );
    metro.faults = Some(air);
    ChaosConfig {
        metro,
        infra,
        checkpoint_every: Some(Duration::from_secs(20)),
        partition: PartitionPolicy::default(),
    }
}

fn bench_chaos(c: &mut Criterion) {
    let fast = fast();
    let reps = if fast { 1 } else { 3 };
    let workers = wile_sim::engine::available_workers();
    let chaos = |cfg: &ChaosConfig| run_chaos(cfg, workers, &mut Telemetry::off(), None);
    // Full mode prices the fault layer on the E11/E13 metro
    // configuration; fast mode shrinks the world for the CI smoke run.
    let metro_cfg = if fast {
        cluster_cell(4, 500)
    } else {
        MetroConfig::metro(42)
    };

    wile_bench::banner("chaos overhead (metro, fault layer unarmed vs armed)");
    // Differential witness before timing: the unarmed fault layer
    // changes nothing — the whole report, digest included.
    let plain = run_metro(&metro_cfg, workers);
    let unarmed = chaos(&ChaosConfig::no_faults(metro_cfg.clone()));
    assert_eq!(
        plain, unarmed.metro,
        "empty-plan chaos diverged from plain metro"
    );

    let metro_s = median_s(reps, || run_metro(&metro_cfg, workers).delivery_digest);
    let unarmed_s = median_s(reps, || {
        chaos(&ChaosConfig::no_faults(metro_cfg.clone()))
            .metro
            .delivery_digest
    });
    let overhead_pct = (unarmed_s / metro_s - 1.0) * 100.0;
    println!(
        "plain {metro_s:.3} s, chaos(empty plan) {unarmed_s:.3} s \
         ({overhead_pct:+.2}% overhead, target < 5%)"
    );

    // And the armed point: what a full fault campaign costs.
    let chaos_cfg = if fast {
        chaos_cell(4, 500)
    } else {
        ChaosConfig::metro(42)
    };
    let probe = chaos(&chaos_cfg);
    assert!(probe.metro.stats.conserves_offered_load());
    assert_eq!(probe.duplicate_deliveries, 0);
    let armed_s = median_s(reps, || chaos(&chaos_cfg).metro.delivery_digest);
    println!(
        "chaos(armed) {armed_s:.3} s: {} delivered, {} shed, {} lost in crash, \
         {} recoveries",
        probe.metro.stats.delivered,
        probe.metro.stats.total_shed(),
        probe.metro.stats.total_lost_in_crash(),
        probe.recoveries.len(),
    );

    // Criterion-visible pair on a small cell.
    let small = cluster_cell(2, if fast { 100 } else { 200 });
    let mut g = c.benchmark_group("chaos");
    g.sample_size(10);
    g.bench_function("metro_plain", |b| {
        b.iter(|| black_box(run_metro(&small, workers).delivery_digest))
    });
    g.bench_function("metro_chaos_empty_plan", |b| {
        b.iter(|| {
            black_box(
                chaos(&ChaosConfig::no_faults(small.clone()))
                    .metro
                    .delivery_digest,
            )
        })
    });
    g.finish();

    let json = Json::obj()
        .field("pr", Json::int(6))
        .field("fast_mode", Json::Bool(fast))
        .field("workers", Json::int(workers as u64))
        .field(
            "note",
            Json::str(
                "infrastructure-chaos overhead on the metro scenario: identical runs through \
                 run_metro vs run_chaos with an empty fault plan (byte-identity asserted before \
                 timing), plus the armed point under the full E13 campaign",
            ),
        )
        .field(
            "overhead",
            Json::obj()
                .field("gateways", Json::int(metro_cfg.gateways as u64))
                .field("devices", Json::int(metro_cfg.devices as u64))
                .field("metro_wall_s", Json::Num((metro_s * 1e4).round() / 1e4))
                .field(
                    "chaos_empty_wall_s",
                    Json::Num((unarmed_s * 1e4).round() / 1e4),
                )
                .field(
                    "overhead_pct",
                    Json::Num((overhead_pct * 100.0).round() / 100.0),
                )
                .field("target_pct", Json::Num(5.0)),
        )
        .field(
            "armed",
            Json::obj()
                .field("wall_s", Json::Num((armed_s * 1e4).round() / 1e4))
                .field("delivered", Json::int(probe.metro.stats.delivered))
                .field("shed", Json::int(probe.metro.stats.total_shed()))
                .field(
                    "lost_in_crash",
                    Json::int(probe.metro.stats.total_lost_in_crash()),
                )
                .field("checkpoints", Json::int(probe.metro.stats.checkpoints))
                .field("recoveries", Json::int(probe.recoveries.len() as u64)),
        );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");
    std::fs::write(path, json.render() + "\n").expect("write BENCH_6.json");
    println!("\nwrote {path}");
}

/// PR-6 recorded wall clock for the full E11 metro configuration
/// (8 gateways × 20,000 devices × 1 simulated hour, `BENCH_6.json`
/// `metro_wall_s`), the baseline the PR-7 scaling grid is compared
/// against: beacons/s = 1,199,834 / 10.6362 s.
const PR6_20K_BEACONS_PER_S: f64 = 1_199_834.0 / 10.6362;

fn bench_scale(c: &mut Criterion) {
    let fast = fast();
    let reps = if fast { 1 } else { 2 };
    let workers = wile_sim::engine::available_workers();
    // The devices-scaling grid: the E14 geometry (constant density,
    // gateways scale with devices, σ=0 so the sensitivity horizon is
    // tight) from 10⁴ up. The full-mode tail is the E14 million point
    // itself, run once — it is minutes, not milliseconds.
    let grid: Vec<usize> = if fast {
        vec![10_000, 20_000]
    } else {
        vec![10_000, 20_000, 50_000, 100_000, 1_000_000]
    };

    wile_bench::banner("devices-scaling grid (E14 geometry)");
    let mut rows = Vec::new();
    // Event throughput at the 20k-device grid point, compared below
    // against what the PR-6 machinery recorded on its own 20k-device
    // metro (BENCH_6.json), extrapolated to this geometry.
    let mut speedup_20k = 0.0;
    for &devices in &grid {
        let cfg = MetroConfig::metro_scaled(devices, 42);
        let cell_reps = if devices >= 100_000 { 1 } else { reps };
        let probe = run_metro(&cfg, workers);
        assert!(probe.stats.conserves_offered_load());
        let beacons = probe.beacons_sent;
        let hears = probe.stats.total_hears();
        let cell_s = median_s(cell_reps, || run_metro(&cfg, workers).delivery_digest);
        let beacons_per_s = beacons as f64 / cell_s;
        if devices == 20_000 {
            speedup_20k = beacons_per_s / PR6_20K_BEACONS_PER_S;
        }
        println!(
            "{devices:>9} dev × {:>3} gw: {beacons:>9} beacons, {hears:>8} hears, \
             {cell_s:>8.3} s ({beacons_per_s:.0} beacons/s)",
            cfg.gateways
        );
        rows.push(
            Json::obj()
                .field("devices", Json::int(devices as u64))
                .field("gateways", Json::int(cfg.gateways as u64))
                .field("beacons", Json::int(beacons))
                .field("hears", Json::int(hears))
                .field("delivered", Json::int(probe.stats.delivered))
                .field("wall_s", Json::Num((cell_s * 1e4).round() / 1e4))
                .field("beacons_per_s", Json::Num(beacons_per_s.round())),
        );
    }
    println!(
        "20k-device point: {speedup_20k:.1}x beacons/s over the extrapolated PR-6 baseline \
         ({PR6_20K_BEACONS_PER_S:.0} beacons/s)"
    );

    // Criterion-visible timing for the smallest grid point.
    let small = MetroConfig::metro_scaled(10_000, 42);
    let mut g = c.benchmark_group("scale");
    g.sample_size(10);
    g.bench_function("metro_scaled_10k", |b| {
        b.iter(|| black_box(run_metro(&small, workers).delivery_digest))
    });
    g.finish();

    let json = Json::obj()
        .field("pr", Json::int(7))
        .field("fast_mode", Json::Bool(fast))
        .field("workers", Json::int(workers as u64))
        .field(
            "note",
            Json::str(
                "devices-scaling grid on the E14 geometry (constant density, sigma=0, tight \
                 sensitivity horizon): event-queue run lanes + spatially sharded medium + SoA \
                 fleet; \
                 beacons/s counts wake-transmit events end to end through the kernel, medium \
                 and cluster; baseline_beacons_per_s is the PR-6 recorded E11 metro throughput \
                 (1,199,834 beacons / 10.6362 s, BENCH_6.json) extrapolated to the 20k point",
            ),
        )
        .field(
            "baseline_beacons_per_s",
            Json::Num(PR6_20K_BEACONS_PER_S.round()),
        )
        .field(
            "speedup_20k_vs_pr6",
            Json::Num((speedup_20k * 10.0).round() / 10.0),
        )
        .field("grid", Json::Arr(rows));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    std::fs::write(path, json.render() + "\n").expect("write BENCH_7.json");
    println!("\nwrote {path}");
}

fn bench_sap(_c: &mut Criterion) {
    let fast = fast();
    let reps = if fast { 1 } else { 3 };
    let workers = wile_sim::engine::available_workers();

    // --- mixed-protocol metro (E15): what the SAP newly buys ---------
    wile_bench::banner("mixed-protocol metro (E15 capstone)");
    let mixed_cfg = if fast {
        MixedConfig::smoke(42)
    } else {
        MixedConfig::scaled(400, 42)
    };
    let probe = run_mixed(&mixed_cfg, workers);
    assert_eq!(
        probe,
        run_mixed(&mixed_cfg, 1),
        "mixed report not digest-identical across worker counts"
    );
    assert!(probe.stats.conserves_offered_load());
    let mixed_s = median_s(reps, || run_mixed(&mixed_cfg, workers).delivery_digest);
    println!(
        "{} Wi-LE + {} BLE + {} migrants: {mixed_s:.3} s \
         ({} beacons, {} BLE events, {}/{} migrations)",
        mixed_cfg.wile_devices,
        mixed_cfg.ble_devices,
        mixed_cfg.migrants,
        probe.wile_beacons,
        probe.ble_events,
        probe.migrations,
        mixed_cfg.migrants,
    );

    let json = Json::obj()
        .field("pr", Json::int(8))
        .field("fast_mode", Json::Bool(fast))
        .field("workers", Json::int(workers as u64))
        .field(
            "note",
            Json::str(
                "E15 mixed-protocol metro wall clock (Wi-LE + BLE + WiFi migrants on one \
                 medium, digest-identical at any worker count). The SAP-overhead pairs this \
                 file first carried timed runners that have since been deleted; they are not \
                 re-measured",
            ),
        )
        .field(
            "mixed",
            Json::obj()
                .field("wile_devices", Json::int(mixed_cfg.wile_devices as u64))
                .field("ble_devices", Json::int(mixed_cfg.ble_devices as u64))
                .field("migrants", Json::int(mixed_cfg.migrants as u64))
                .field("wall_s", Json::Num((mixed_s * 1e4).round() / 1e4))
                .field("wile_beacons", Json::int(probe.wile_beacons))
                .field("ble_events", Json::int(probe.ble_events))
                .field("migrations", Json::int(probe.migrations))
                .field(
                    "delivery_digest",
                    Json::str(format!("{:#018x}", probe.delivery_digest)),
                ),
        );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    std::fs::write(path, json.render() + "\n").expect("write BENCH_8.json");
    println!("\nwrote {path}");
}

/// One full loopback pass: daemon on a real TCP listener, the feeder
/// streaming the capture at max rate, returning the drained report.
fn loopback_pass(capture: &[u8], workers: usize, keep_deliveries: bool) -> GatewaydReport {
    wile_gatewayd::signal::reset_stop();
    let mut daemon = Daemon::new(
        DaemonOptions {
            workers,
            keep_deliveries,
            config: None,
        },
        None,
    )
    .expect("daemon");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || daemon.serve_tcp(listener).expect("serve"));
    let mut conn = TcpStream::connect(addr).expect("connect daemon");
    feed_capture(capture, &mut conn, Pace::MaxRate).expect("feed");
    drop(conn);
    server.join().expect("server thread")
}

/// The 10×-admission overload schedule: per lane and poll window,
/// `per_window` distinct (device, seq) beacons with strictly increasing
/// stamps inside the window, each heard by exactly one lane — so dedup
/// suppressions stay zero and the tail-drop arithmetic is exact.
fn overload_frames(
    lanes: usize,
    per_window: usize,
    windows: u64,
    poll: Duration,
) -> Vec<(u32, RxFrame)> {
    let mut templates: Vec<Vec<BeaconTemplate>> = (0..lanes)
        .map(|lane| {
            (0..per_window)
                .map(|slot| {
                    let device_id = (lane * 100_000 + slot + 1) as u32;
                    let identity = DeviceIdentity::new(device_id);
                    BeaconTemplate::new(identity.mac, device_id, 4).expect("small payload")
                })
                .collect()
        })
        .collect();
    let window_ns = poll.as_nanos();
    let step_ns = window_ns / (per_window as u64 + 1);
    let mut frames = Vec::with_capacity(lanes * per_window * windows as usize);
    for window in 0..windows {
        for slot in 0..per_window {
            let at = Instant::from_nanos(window * window_ns + (slot as u64 + 1) * step_ns);
            for (lane, lane_templates) in templates.iter_mut().enumerate() {
                let seq = window as u16;
                let bytes = lane_templates[slot].render(
                    seq,
                    SeqControl::new(seq & 0x0FFF, 0),
                    &(slot as u32).to_le_bytes(),
                );
                frames.push((
                    lane as u32,
                    RxFrame {
                        at,
                        from: RadioId(1_000_000 + lane as u32),
                        rssi_dbm: -55.0,
                        snr_db: 25.0,
                        bytes: bytes.into(),
                    },
                ));
            }
        }
    }
    frames
}

fn bench_gatewayd(c: &mut Criterion) {
    let fast = fast();
    let reps = if fast { 1 } else { 3 };
    let workers = wile_sim::engine::available_workers();

    // --- loopback throughput: feeder → TCP → codec → cluster ---------
    wile_bench::banner("gatewayd loopback (sustained frames/s over TCP)");
    let cfg = if fast {
        MetroConfig::smoke(42)
    } else {
        cluster_cell(4, 2_000)
    };
    let (metro, capture, frames) = capture_metro(&cfg, 1, Vec::new()).expect("capture metro");
    // Byte-identity witness before timing: the transport must reproduce
    // the in-process run exactly, at the bench worker count.
    let witness = loopback_pass(&capture, workers, cfg.keep_deliveries);
    assert!(
        witness.matches_metro(&metro),
        "loopback transport diverged from the in-process metro run"
    );
    assert!(witness.frames_ledger_closes());
    let loopback_s = median_s(reps, || {
        loopback_pass(&capture, workers, cfg.keep_deliveries).delivery_digest
    });
    let frames_per_s = frames as f64 / loopback_s;
    println!(
        "{} gateways × {} devices: {frames} frames in {loopback_s:.3} s \
         ({frames_per_s:.0} frames/s sustained, digest {:#018x})",
        cfg.gateways, cfg.devices, metro.delivery_digest,
    );

    // --- overload point: 10× admission, exact tail-drop books --------
    wile_bench::banner("gatewayd overload (10× admission tail-drop accounting)");
    const LANES: usize = 2;
    const QUEUE_CAP: usize = 50;
    const PER_WINDOW: usize = QUEUE_CAP * 10;
    const WINDOWS: u64 = 4;
    let poll = Duration::from_secs(10);
    let overload_cfg = GatewaydConfig {
        gateways: LANES,
        queue_capacity: Some(QUEUE_CAP),
        poll_every: poll,
        stale_after: Duration::from_secs(3600),
        horizon: Instant::from_secs(WINDOWS * poll.as_nanos() / 1_000_000_000),
        keep_deliveries: false,
        workers: 1,
        log_polls: false,
    };
    let schedule = overload_frames(LANES, PER_WINDOW, WINDOWS, poll);
    let offered = schedule.len() as u64;
    let overload_s = median_s(reps, || {
        let mut core = GatewaydCore::new(overload_cfg.clone());
        let mut out = Vec::new();
        for (lane, frame) in schedule.iter().cloned() {
            core.offer(lane, frame, &mut out).expect("clean schedule");
        }
        // finish() asserts the conservation law and the frame ledger.
        core.finish(&mut out).stats.total_drops()
    });
    let mut core = GatewaydCore::new(overload_cfg.clone());
    let mut out = Vec::new();
    for (lane, frame) in schedule.iter().cloned() {
        core.offer(lane, frame, &mut out).expect("clean schedule");
    }
    let overload = core.finish(&mut out);
    let hears = overload.stats.total_hears();
    let delivered = overload.stats.delivered;
    let drops = overload.stats.total_drops();
    assert_eq!(hears, offered);
    assert_eq!(delivered, (LANES * QUEUE_CAP) as u64 * WINDOWS);
    assert_eq!(drops, hears - delivered, "one hearer per frame, no faults");
    println!(
        "{offered} offered at 10× admission: {delivered} delivered, {drops} tail-dropped \
         in {overload_s:.3} s — books close to the frame"
    );

    // Criterion-visible point: replaying a smoke capture through the
    // deterministic core (no transport), the floor the TCP path chases.
    let (_, smoke_capture, _) =
        capture_metro(&MetroConfig::smoke(42), 1, Vec::new()).expect("capture smoke");
    let mut g = c.benchmark_group("gatewayd");
    g.sample_size(10);
    g.bench_function("replay_smoke", |b| {
        b.iter(|| {
            black_box(
                replay_capture(&smoke_capture, false, 1)
                    .expect("replay")
                    .delivery_digest,
            )
        })
    });
    g.finish();

    let json = Json::obj()
        .field("pr", Json::int(9))
        .field("fast_mode", Json::Bool(fast))
        .field("workers", Json::int(workers as u64))
        .field(
            "note",
            Json::str(
                "wile-gatewayd ingestion service: sustained frames/s through the real \
                 loopback TCP transport (wile-feeder pacing a recorded .wcap at max rate \
                 into the daemon's framed codec and cluster pipeline), digest asserted \
                 byte-identical to the in-process metro before timing. The overload point \
                 drives 10x the per-window queue admission through GatewaydCore and checks \
                 the extended conservation law closes with exact tail-drop arithmetic",
            ),
        )
        .field(
            "loopback",
            Json::obj()
                .field("gateways", Json::int(cfg.gateways as u64))
                .field("devices", Json::int(cfg.devices as u64))
                .field("frames", Json::int(frames))
                .field("wall_s", Json::Num((loopback_s * 1e4).round() / 1e4))
                .field("frames_per_s", Json::Num(frames_per_s.round()))
                .field(
                    "delivery_digest",
                    Json::str(format!("{:#018x}", metro.delivery_digest)),
                ),
        )
        .field(
            "overload",
            Json::obj()
                .field("lanes", Json::int(LANES as u64))
                .field("queue_capacity", Json::int(QUEUE_CAP as u64))
                .field("admission_multiple", Json::int(10))
                .field("windows", Json::int(WINDOWS))
                .field("hears", Json::int(hears))
                .field("delivered", Json::int(delivered))
                .field("queue_drops", Json::int(drops))
                .field("shed", Json::int(overload.stats.total_shed()))
                .field("conserves_offered_load", Json::Bool(true))
                .field("wall_s", Json::Num((overload_s * 1e4).round() / 1e4)),
        );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");
    std::fs::write(path, json.render() + "\n").expect("write BENCH_9.json");
    println!("\nwrote {path}");
}

criterion_group!(
    benches,
    bench_perf,
    bench_cluster,
    bench_telemetry,
    bench_chaos,
    bench_scale,
    bench_sap,
    bench_gatewayd
);
criterion_main!(benches);
