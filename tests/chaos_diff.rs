//! Differential acceptance tests for the infrastructure chaos layer,
//! in the style of `cluster_diff.rs`:
//!
//! * the chaos path with an **empty** fault plan must reproduce plain
//!   [`wile_scenarios::metro::run_metro`] byte-for-byte — report and
//!   FNV delivery digest — across seeds and worker counts (the fault
//!   machinery must cost nothing when unarmed);
//! * every **faulted** run must hold the extended conservation law and
//!   at-most-once delivery, be byte-identical across worker counts, and
//!   show checkpoint-based recovery within the E13 window.

use wile_radio::time::Duration;
use wile_scenarios::chaos::{run_chaos, ChaosConfig};
use wile_scenarios::metro::{run_metro, MetroConfig};
use wile_telemetry::Telemetry;

#[test]
fn empty_plan_chaos_is_byte_identical_to_plain_metro() {
    for seed in [42u64, 7, 9] {
        for workers in [1usize, 4] {
            let metro = run_metro(&MetroConfig::smoke(seed), workers);
            let chaos = run_chaos(
                &ChaosConfig::no_faults(MetroConfig::smoke(seed)),
                workers,
                &mut Telemetry::off(),
                None,
            );
            assert_eq!(
                chaos.metro, metro,
                "chaos(empty) diverges from metro (seed {seed}, workers {workers})"
            );
            assert_eq!(
                chaos.metro.delivery_digest, metro.delivery_digest,
                "digest diverges (seed {seed}, workers {workers})"
            );
            assert!(chaos.phases.is_empty());
            assert!(chaos.lane_events.is_empty());
            assert_eq!(chaos.duplicate_deliveries, 0);
        }
    }
}

#[test]
fn faulted_chaos_conserves_and_is_worker_count_independent() {
    for seed in [42u64, 7] {
        let cfg = ChaosConfig::smoke(seed);
        let base = run_chaos(&cfg, 1, &mut Telemetry::off(), None);
        // The runner itself asserts conservation after every poll and
        // at-most-once at the end; re-state the ledger here as the
        // acceptance criterion.
        let s = &base.metro.stats;
        assert_eq!(
            s.delivered
                + s.total_suppressions()
                + s.total_drops()
                + s.total_shed()
                + s.total_lost_in_crash(),
            s.total_hears(),
            "extended conservation (seed {seed}): {s:?}"
        );
        assert_eq!(base.duplicate_deliveries, 0, "seed {seed}");
        for workers in [2usize, 4] {
            let got = run_chaos(&cfg, workers, &mut Telemetry::off(), None);
            assert_eq!(
                base, got,
                "chaos report diverges at {workers} workers (seed {seed})"
            );
        }
    }
}

#[test]
fn smoke_chaos_exercises_every_fault_mechanism_for_real() {
    // Guard against vacuous invariants above: every fault mechanism
    // must actually bite in the smoke campaign.
    let r = run_chaos(&ChaosConfig::smoke(42), 2, &mut Telemetry::off(), None);
    let s = &r.metro.stats;
    assert!(s.total_lost_in_crash() > 0, "crash never bit: {s:?}");
    assert!(s.total_shed() > 0, "shed paths never bit: {s:?}");
    assert!(s.checkpoints > 0, "no checkpoints taken: {s:?}");
    assert!(s.recovered > 0, "no orphan re-elections: {s:?}");
    assert_eq!(s.lanes[0].crashes, 1, "{s:?}");
    assert_eq!(s.lanes[0].restarts, 1, "{s:?}");
    assert!(
        !r.lane_events.is_empty(),
        "no lane transitions were recorded"
    );
    // And the campaign still delivered the vast majority of traffic.
    assert!(s.delivered > 0);
}

#[test]
fn crashed_lane_recovers_within_the_reported_window() {
    // E13's recovery claim: after a checkpoint-restored restart, the
    // lane wins deliveries again within two poll intervals.
    let cfg = ChaosConfig::smoke(42);
    let r = run_chaos(&cfg, 1, &mut Telemetry::off(), None);
    assert_eq!(r.recoveries.len(), 1, "{:?}", r.recoveries);
    let rec = &r.recoveries[0];
    assert_eq!(rec.lane, 0);
    assert!(rec.restored, "checkpoint cadence covers the crash window");
    let lag = rec
        .recovery_after_restart()
        .expect("lane must win again before the horizon");
    assert!(
        lag <= cfg.metro.poll_every.mul(2),
        "recovery took {lag:?}, window is {:?}",
        cfg.metro.poll_every.mul(2)
    );
}

#[test]
fn cold_restart_still_recovers_but_re_suppresses_nothing() {
    // Without checkpoints the restart comes up cold; recovery must
    // still happen (ownership re-election does not depend on lane
    // state) and at-most-once must still hold because the aggregator's
    // dedup outlives every lane.
    let mut cfg = ChaosConfig::smoke(7);
    cfg.checkpoint_every = None;
    let r = run_chaos(&cfg, 1, &mut Telemetry::off(), None);
    assert_eq!(r.metro.stats.checkpoints, 0);
    assert_eq!(r.duplicate_deliveries, 0);
    assert_eq!(r.recoveries.len(), 1);
    assert!(!r.recoveries[0].restored, "no checkpoint to restore");
    assert!(r.recoveries[0].recovered_at.is_some());
}

#[test]
fn longer_checkpoint_cadence_changes_restore_mode_only_deterministically() {
    // A cadence longer than the run means no checkpoint exists at the
    // crash; the restart is cold but everything still conserves.
    let mut cfg = ChaosConfig::smoke(9);
    cfg.checkpoint_every = Some(Duration::from_secs(100_000));
    let r = run_chaos(&cfg, 1, &mut Telemetry::off(), None);
    assert_eq!(r.metro.stats.checkpoints, 0);
    assert!(!r.recoveries[0].restored);
    assert!(r.metro.stats.conserves_offered_load());
    assert_eq!(r.duplicate_deliveries, 0);
}
