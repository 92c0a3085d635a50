//! Property-based tests for the infrastructure fault layer, in the
//! style of `props.rs` but driven through the *real* stack: beacons
//! injected on a real [`Medium`], heard by real gateway lanes, polled
//! through [`GatewayCluster`] under **arbitrary** crash/restart,
//! partition, and overload schedules.
//!
//! The claims, checked over arbitrary schedules:
//!
//! 1. **Extended conservation, continuously** — `delivered +
//!    suppressions + queue_drops + shed + lost_in_crash + buffered ==
//!    hears` after *every* poll, and once every fault window has closed
//!    the buffered term drains to zero and the ledger closes exactly.
//! 2. **At-most-once** — no `(device, seq)` is delivered twice, under
//!    any crash schedule, with or without checkpoints (a stale
//!    checkpoint may re-offer, but the aggregator's dedup outlives
//!    every lane).
//! 3. **Worker independence** — the delivery stream, the stats, and the
//!    lane-event log are byte-identical at 1, 3, and 8 workers.
//! 4. **Checkpoint round-trip** — a gateway restored from a snapshot
//!    continues exactly as if it had never stopped: identical outputs,
//!    identical final snapshot, at any split point.

use proptest::prelude::*;
use std::collections::HashSet;
use wile::inject::Injector;
use wile::monitor::Gateway;
use wile::registry::DeviceIdentity;
use wile_cluster::{
    ClusterConfig, ClusterDelivery, ClusterDisturbance, ClusterFaultPhase, ClusterFaultPlan,
    ClusterStats, GatewayCluster, LaneEventRecord, PartitionPolicy,
};
use wile_radio::medium::{Medium, RadioConfig};
use wile_radio::time::{Duration, Instant};
use wile_sim::ingest::GatewayIngest;

const LANES: usize = 2;
const RUN_SECS: u64 = 300;
/// Polls continue past the last fault window so partitions flush and
/// the buffered term drains before the final ledger check.
const DRAIN_SECS: u64 = 420;
const POLL_SECS: u64 = 10;

/// One requested fault window: (lane, kind 0=crash 1=partition,
/// start s, length s). Overload is generated separately.
type Window = (usize, u8, u64, u64);

#[derive(Debug, Clone)]
struct Schedule {
    windows: Vec<Window>,
    overload: Option<(u64, u64, u64)>, // (start, len, cap)
    checkpoint_secs: Option<u64>,
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (
        prop::collection::vec((0usize..LANES, 0u8..2, 10u64..250, 5u64..60), 0..4),
        // cap == 0 encodes "no overload phase".
        (10u64..250, 5u64..60, 0u64..6),
        // below 15 s encodes "no checkpointing".
        0u64..80,
    )
        .prop_map(|(windows, (o_start, o_len, o_cap), ckpt)| Schedule {
            windows,
            overload: (o_cap > 0).then_some((o_start, o_len, o_cap)),
            checkpoint_secs: (ckpt >= 15).then_some(ckpt),
        })
}

/// Turn the raw windows into a *valid* plan: sorted, and per-scope
/// non-overlapping (requested windows that collide with an earlier one
/// on the same lane are dropped, mirroring how an operator would fix a
/// rejected plan).
fn build_plan(s: &Schedule) -> ClusterFaultPlan {
    let mut sorted = s.windows.clone();
    sorted.sort_by_key(|&(_, _, start, _)| start);
    let mut lane_free_at = [0u64; LANES];
    let mut phases = Vec::new();
    for &(lane, kind, start, len) in &sorted {
        if start < lane_free_at[lane] {
            continue;
        }
        let disturbance = if kind == 0 {
            ClusterDisturbance::LaneCrash { lane }
        } else {
            ClusterDisturbance::BackhaulPartition { lane }
        };
        phases.push(ClusterFaultPhase::new(
            Instant::from_secs(start),
            Instant::from_secs(start + len),
            disturbance,
            "w",
        ));
        lane_free_at[lane] = start + len;
    }
    if let Some((start, len, cap)) = s.overload {
        phases.push(ClusterFaultPhase::new(
            Instant::from_secs(start),
            Instant::from_secs(start + len),
            ClusterDisturbance::AggregatorOverload {
                admit_per_round: cap as usize,
            },
            "o",
        ));
    }
    phases.sort_by_key(|p| (p.start, p.end));
    ClusterFaultPlan::new(phases)
}

/// A two-gateway world with three devices between them; every beacon
/// schedule is staggered so the run is deterministic and replayable at
/// any worker count.
fn run_world(
    s: &Schedule,
    workers: usize,
) -> (Vec<ClusterDelivery>, ClusterStats, Vec<LaneEventRecord>) {
    let mut medium = Medium::new(Default::default(), 11);
    let gw0 = medium.attach(RadioConfig::default());
    let gw1 = medium.attach(RadioConfig {
        position_m: (8.0, 0.0),
        ..Default::default()
    });
    let devs = [(1.0, 0.0), (4.0, 0.0), (7.0, 0.0)].map(|p| {
        medium.attach(RadioConfig {
            position_m: p,
            ..Default::default()
        })
    });

    let mut cluster = GatewayCluster::new(ClusterConfig {
        partition: PartitionPolicy {
            buffer: 64,
            max_retries: 3,
        },
        checkpoint_every: s.checkpoint_secs.map(Duration::from_secs),
        ..Default::default()
    });
    cluster.add_gateway(GatewayIngest::new(gw0, Gateway::new()));
    cluster.add_gateway(GatewayIngest::new(gw1, Gateway::new()));
    cluster.set_faults(build_plan(s));

    // Three devices beaconing on staggered prime-ish periods. The
    // medium requires globally time-ordered transmissions, so build
    // the whole timetable first and inject it interleaved.
    let mut injectors: Vec<Injector> = (0..devs.len())
        .map(|n| Injector::new(DeviceIdentity::new(n as u32 + 1), Instant::ZERO))
        .collect();
    let mut timetable = Vec::new();
    for n in 0..devs.len() {
        let period = 7 + 4 * n as u64;
        let mut at = Duration::from_ms(500 * (n as u64 + 1));
        while (Instant::ZERO + at) < Instant::from_secs(RUN_SECS) {
            timetable.push((Instant::ZERO + at, n));
            at += Duration::from_secs(period);
        }
    }
    timetable.sort();
    for (at, n) in timetable {
        injectors[n].sleep_until(at);
        injectors[n].inject(&mut medium, devs[n], &[n as u8]);
    }

    let mut deliveries = Vec::new();
    let mut events = Vec::new();
    let mut at = POLL_SECS;
    while at <= DRAIN_SECS {
        deliveries.extend(cluster.poll(&mut medium, None, Instant::from_secs(at), workers, None));
        assert!(
            cluster.stats().conserves_offered_load(),
            "conservation violated at t={at}s: {:?}",
            cluster.stats()
        );
        events.extend(cluster.take_lane_events());
        at += POLL_SECS;
    }
    (deliveries, cluster.stats(), events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_and_at_most_once_under_arbitrary_schedules(
        s in arb_schedule(),
    ) {
        let (deliveries, stats, _) = run_world(&s, 1);

        // At-most-once, whatever crashed, restored, or flushed.
        let mut keys = HashSet::new();
        for d in &deliveries {
            prop_assert!(
                keys.insert((d.device_id, d.seq)),
                "({}, {}) delivered twice", d.device_id, d.seq
            );
        }

        // Every fault window has closed and every partition flushed:
        // the ledger closes exactly, with no buffered remainder.
        prop_assert_eq!(stats.total_buffered(), 0);
        prop_assert_eq!(
            stats.delivered
                + stats.total_suppressions()
                + stats.total_drops()
                + stats.total_shed()
                + stats.total_lost_in_crash(),
            stats.total_hears(),
        );
        prop_assert_eq!(stats.delivered, deliveries.len() as u64);

        // Crash bookkeeping is balanced: every crash inside the run got
        // its restart, and checkpoints only exist when configured.
        for lane in &stats.lanes {
            prop_assert_eq!(lane.crashes, lane.restarts);
        }
        if s.checkpoint_secs.is_none() {
            prop_assert_eq!(stats.checkpoints, 0);
        }
    }

    #[test]
    fn chaos_results_are_worker_count_independent(
        s in arb_schedule(),
    ) {
        let base = run_world(&s, 1);
        for workers in [3usize, 8] {
            let got = run_world(&s, workers);
            prop_assert_eq!(&got.0, &base.0);
            prop_assert_eq!(&got.1, &base.1);
            prop_assert_eq!(&got.2, &base.2);
        }
    }
}

/// Feed `n` staggered beacons from two devices into a fresh medium and
/// return it with the gateway's radio id.
fn beacon_medium(n: u64) -> (Medium, wile_radio::medium::RadioId) {
    let mut medium = Medium::new(Default::default(), 11);
    let gw = medium.attach(RadioConfig::default());
    let devs = [(1.0, 0.0), (3.0, 0.0)].map(|p| {
        medium.attach(RadioConfig {
            position_m: p,
            ..Default::default()
        })
    });
    // Interleaved in global time order, as the medium requires.
    let mut injectors: Vec<Injector> = (0..devs.len())
        .map(|d| Injector::new(DeviceIdentity::new(d as u32 + 1), Instant::ZERO))
        .collect();
    let mut timetable = Vec::new();
    for d in 0..devs.len() {
        for k in 0..n {
            timetable.push((
                Instant::ZERO + Duration::from_ms(1_500 * k + 700 * d as u64),
                d,
            ));
        }
    }
    timetable.sort();
    for (at, d) in timetable {
        injectors[d].sleep_until(at);
        injectors[d].inject(&mut medium, devs[d], &[d as u8]);
    }
    (medium, gw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Checkpoint round-trip: snapshot → restore at an arbitrary split
    /// point continues *exactly* like the uninterrupted gateway — same
    /// outputs for the remainder, same final snapshot.
    #[test]
    fn snapshot_restore_round_trip_is_exact(
        beacons in 1u64..20,
        split_ms in 0u64..30_000,
    ) {
        let end = Instant::from_secs(60);
        let split = Instant::from_ms(split_ms);

        // Reference: one gateway, polled across the same split.
        let (mut m1, r1) = beacon_medium(beacons);
        let mut reference = Gateway::new();
        let ref_first = reference.poll(&mut m1, r1, split);
        let ref_rest = reference.poll(&mut m1, r1, end);

        // Round-trip: poll to the split, checkpoint, restore into a
        // *fresh* gateway, continue.
        let (mut m2, r2) = beacon_medium(beacons);
        let mut original = Gateway::new();
        let first = original.poll(&mut m2, r2, split);
        let snap = original.snapshot();
        let mut restored = Gateway::new();
        restored.restore(&snap);
        let rest = restored.poll(&mut m2, r2, end);

        prop_assert_eq!(first, ref_first);
        prop_assert_eq!(rest, ref_rest);
        prop_assert_eq!(restored.snapshot(), reference.snapshot());
        prop_assert_eq!(restored.stats(), reference.stats());
    }
}
