//! The simulator workloads, `metro-dense` and `city-1m`: whole
//! `run_metro` calls, timed from world construction to the report.

use crate::speed::Clock;
use crate::{stats, Outcome, Workload, HEAP, MIB};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant as WallInstant;
use wile_radio::medium::RxFrame;
use wile_scenarios::metro::{run_metro_with, MetroConfig, MetroReport};
use wile_telemetry::Telemetry;

/// Most runs one invocation makes while collecting poll samples.
const MAX_RUNS: usize = 8;

/// One timed metro run.
pub struct SimRun {
    /// The run's report.
    pub report: MetroReport,
    /// Wall time of the whole call less the reference units run in it,
    /// host seconds.
    pub wall_s: f64,
    /// The same time at the reference's nominal speed (see [`crate::speed`]).
    pub nominal_s: f64,
    /// Time between the first lane drains of consecutive polls at the
    /// nominal speed, ms.
    pub poll_ms: Vec<f64>,
    /// Peak live heap above the heap live at the call, bytes.
    pub peak_heap: usize,
}

/// Run the metro world once with the cluster on one worker, timing the
/// whole call and each poll cycle. The cycles are timed by a frame tap
/// (the scenario's observation hook) that laps a [`Clock`] when the
/// first frame of a new poll is drained; a tap observes only, and the
/// report is the untapped run's.
pub fn timed_metro(cfg: &MetroConfig) -> SimRun {
    let poll_ns = cfg.poll_every.as_nanos();
    // The clock, and per lap the poll that begins there with the
    // nominal seconds of the stretch that ends there.
    let laps = Rc::new(RefCell::new((Clock::start(), Vec::<(u64, f64)>::new())));
    let tap_laps = Rc::clone(&laps);
    let mut current = 0;
    let tap = Box::new(move |_lane: usize, f: &RxFrame| {
        let poll = f.at.as_nanos().div_ceil(poll_ns);
        if poll != current {
            current = poll;
            let (clock, laps) = &mut *tap_laps.borrow_mut();
            laps.push((poll, clock.lap()));
        }
    });
    let base = HEAP.reset_peak();
    let report = run_metro_with(cfg, 1, &mut Telemetry::off(), Some(tap));
    let (clock, laps) = &mut *laps.borrow_mut();
    clock.lap();
    let peak_heap = HEAP.peak() - base;
    let poll_ms = laps
        .windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1)
        .map(|w| w[1].1 * 1e3)
        .collect();
    SimRun {
        report,
        wall_s: clock.host_s(),
        nominal_s: clock.nominal_s(),
        poll_ms,
        peak_heap,
    }
}

/// Beacons the fleet must send: each device wakes first at 500 ms plus
/// its stagger slot, then every period while the wake is within the
/// run.
pub fn beacons_due(cfg: &MetroConfig) -> u64 {
    let end = cfg.duration.as_nanos();
    let period = cfg.period.as_nanos();
    let stagger = period / cfg.devices as u64;
    (0..cfg.devices as u64)
        .map(|i| {
            let first = 500_000_000 + i * stagger;
            1 + end.saturating_sub(first) / period * u64::from(first <= end)
        })
        .sum()
}

/// Check one run's report: the expected digest (when recorded for this
/// seed), the digest of the invocation's first run, the beacon count,
/// and the cluster's conservation law. Returns whether all held.
pub fn check_report(
    out: &mut Outcome,
    cfg: &MetroConfig,
    report: &MetroReport,
    expected: Option<u64>,
    first: Option<u64>,
) -> bool {
    let digest = report.delivery_digest;
    let due = beacons_due(cfg);
    let delivered = report.stats.delivered;
    [
        out.check(expected.is_none_or(|e| e == digest), || {
            format!(
                "digest {digest:#018x}, expected {:#018x}",
                expected.unwrap_or(0)
            )
        }),
        out.check(first.is_none_or(|f| f == digest), || {
            format!("digest {digest:#018x} differs from this invocation's first run")
        }),
        out.check(report.beacons_sent == due, || {
            format!("{} beacons sent, {due} due", report.beacons_sent)
        }),
        out.check(report.stats.conserves_offered_load(), || {
            format!("cluster ledger does not close: {:?}", report.stats)
        }),
        out.check(delivered > 0 && delivered <= report.beacons_sent, || {
            format!("{delivered} delivered of {} sent", report.beacons_sent)
        }),
    ]
    .iter()
    .all(|&ok| ok)
}

/// Set-ups or reference writes timed together, so the clock's
/// resolution does not show in a nanosecond figure.
const PER_BATCH: u32 = 100_000;

/// A value of fixed shape that the benchmark writes as its reference
/// for the host's current speed at the config set-up's kind of work,
/// writing a small struct. It is the benchmark's own, so no change to
/// the program moves it.
type Reference = ([u64; 13], u32, bool);

/// Host seconds one reference write is taken to last: set-up times are
/// reported at this speed. It is about the reference's time on the
/// 2-core host when other tenants are quiet.
const REFERENCE_S: f64 = 2.0e-9;

/// Host seconds `PER_BATCH` calls of `f` take.
fn batch_s<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = WallInstant::now();
    for _ in 0..PER_BATCH {
        black_box(f());
    }
    t0.elapsed().as_secs_f64()
}

/// Host seconds of one set-up at the speed [`REFERENCE_S`] stands for.
///
/// Each batch of set-ups is paired with a batch of reference writes
/// just after it. This host's speed for core-bound work swings by up to
/// half within seconds as other tenants come and go, and a nanosecond
/// set-up feels all of it; the paired ratio does not, so the set-up is
/// reported as the median ratio times [`REFERENCE_S`]. Work moved into
/// the set-up still shows in full. The pairs take about a second.
fn time_setup<T>(mut setup: impl FnMut() -> T) -> f64 {
    const PAIRS: usize = 1_000;
    let mut ratios = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let setup_s = batch_s(&mut setup);
        let reference_s = batch_s(|| {
            let w = black_box(1u64);
            let reference: Reference = ([w; 13], w as u32, w == 0);
            reference
        });
        ratios.push(setup_s / reference_s);
    }
    stats::median(&ratios) * REFERENCE_S
}

/// The end-to-end run of a simulator workload: whole `run_metro` calls
/// of one world, enough to fill `seconds` and for the poll samples to
/// support p90.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    // The program's set-up is the config: the world is built inside the
    // timed call. The benchmark's own bookkeeping (the digest lookup) is
    // not the program's and stays out.
    let setup_s = time_setup(|| w.config(black_box(seed)));
    let cfg = w.config(seed);
    let expected = w.expected_digest(seed);
    let need = stats::samples_needed(90.0);

    let mut runs: Vec<SimRun> = Vec::new();
    let mut repeats: Vec<Vec<f64>> = Vec::new();
    while runs.len() < w.repeats(seconds)
        || (runs.len() < MAX_RUNS && stats::poll_samples(&repeats).len() < need)
    {
        let run = timed_metro(&cfg);
        let first = runs.first().map(|r| r.report.delivery_digest);
        out.attempted += 1;
        if !check_report(&mut out, &cfg, &run.report, expected, first) {
            out.failed += 1;
        }
        println!(
            "run {}: {:.3} s ({:.3} s at the reference speed), {} beacons, {} hears, {} delivered, digest {:#018x}, peak heap {:.1} MiB",
            runs.len() + 1,
            run.wall_s,
            run.nominal_s,
            run.report.beacons_sent,
            run.report.stats.total_hears(),
            run.report.stats.delivered,
            run.report.delivery_digest,
            run.peak_heap as f64 / MIB
        );
        repeats.push(run.poll_ms.clone());
        runs.push(run);
    }
    let poll_ms = stats::poll_samples(&repeats);
    println!("poll samples: {}", poll_ms.len());

    let per_run =
        |f: &dyn Fn(&SimRun) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
    let beacons_per_s = per_run(&|r| r.report.beacons_sent as f64 / r.nominal_s);
    let frames_per_s = per_run(&|r| r.report.stats.total_hears() as f64 / r.nominal_s);
    let peak_heap_mib = per_run(&|r| r.peak_heap as f64 / MIB);
    out.metric("beacons_per_s", beacons_per_s, "1/s");
    out.metric("frames_per_s", frames_per_s, "1/s");
    out.percentile_metric("poll_p50_ms", &poll_ms, 50.0);
    out.percentile_metric("poll_p90_ms", &poll_ms, 90.0);
    out.metric("peak_heap_mib", peak_heap_mib, "MiB");
    out.metric("setup_s", setup_s, "s");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_count_matches_the_fleet() {
        for cfg in [MetroConfig::smoke(42), MetroConfig::smoke(7)] {
            let run = timed_metro(&cfg);
            assert_eq!(run.report.beacons_sent, beacons_due(&cfg));
            let mut out = Outcome::default();
            assert!(check_report(&mut out, &cfg, &run.report, None, None));
            assert!(!run.poll_ms.is_empty());
        }
    }

    #[test]
    fn city_beacon_count_is_the_recorded_one() {
        assert_eq!(beacons_due(&Workload::City1m.config(42)), 4_991_667);
        assert_eq!(beacons_due(&Workload::MetroDense.config(42)), 1_199_834);
    }
}
