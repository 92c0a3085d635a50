//! Property-based tests for the cluster aggregator.
//!
//! The central claims of the subsystem, checked over arbitrary gateway
//! counts, hearing topologies, RSSI landscapes, and round
//! interleavings:
//!
//! 1. **Exactly once** — every `(device, seq)` heard by at least one
//!    gateway is delivered cluster-wide exactly one time, no matter how
//!    many gateways heard it, how many repeat copies arrived, or how
//!    the reports were split across aggregation rounds.
//! 2. **Conservation** — deliveries plus dedup suppressions equals the
//!    total reports fed in (with unbounded lanes nothing else can
//!    happen to a report).
//! 3. **Best-RSSI election** — the delivered copy carries the maximum
//!    RSSI among the copies of its transmission.
//! 4. **Worker independence** — the full delivery stream and every
//!    counter are byte-identical at 1, 3, and 8 workers.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use wile_cluster::{ClusterAggregator, ClusterDelivery, GatewayReport, RoamingConfig};
use wile_radio::time::{Duration, Instant};

/// One synthetic transmission: (device, seq, at-ms, gateway hear mask,
/// RSSI seed). The seed's top bit doubles as a "start a new aggregation
/// round here" flag, randomizing the interleaving.
type Tx = (u32, u16, u64, u32, u64);

fn arb_txs() -> impl Strategy<Value = Vec<Tx>> {
    prop::collection::vec(
        (
            1u32..20,
            0u16..8,
            0u64..500,
            1u32..64, // non-empty subset of up to 6 gateways
            any::<u64>(),
        ),
        1..80,
    )
}

/// Deterministic per-gateway RSSI in [-103, -40] dBm derived from the
/// transmission's seed byte for that gateway (collisions across
/// gateways are welcome — they exercise the tie-break).
fn rssi(seed: u64, gateway: usize) -> f64 {
    -(40.0 + ((seed >> (gateway * 8)) & 0x3F) as f64)
}

/// Expand the synthetic transmissions into per-round report batches for
/// a `lanes`-gateway cluster, stamping serial ordinals in feed order.
fn rounds_for(txs: &[Tx], lanes: usize) -> Vec<Vec<GatewayReport>> {
    let mut rounds = Vec::new();
    let mut batch = Vec::new();
    let mut ordinal = 0u64;
    for &(device, seq, at_ms, mask, seed) in txs {
        if seed & (1 << 63) != 0 && !batch.is_empty() {
            rounds.push(std::mem::take(&mut batch));
        }
        for g in 0..lanes {
            if mask & (1 << g) == 0 {
                continue;
            }
            batch.push(GatewayReport {
                gateway: g,
                device_id: device,
                seq,
                at: Instant::from_ms(at_ms),
                rssi_dbm: rssi(seed, g),
                payload: vec![device as u8, seq as u8].into(),
                encrypted: false,
                ordinal,
            });
            ordinal += 1;
        }
    }
    if !batch.is_empty() {
        rounds.push(batch);
    }
    rounds
}

/// Run every round through a fresh aggregator and return the per-round
/// deliveries plus the final counters.
fn run(
    rounds: &[Vec<GatewayReport>],
    lanes: usize,
    workers: usize,
) -> (Vec<Vec<ClusterDelivery>>, u64, Vec<u64>, Vec<u64>, u64) {
    let mut agg = ClusterAggregator::new(
        lanes,
        5,
        RoamingConfig {
            hysteresis_db: 6.0,
            min_dwell: Duration::from_ms(50),
        },
    );
    let out: Vec<_> = rounds
        .iter()
        .map(|r| agg.round(&mut r.clone(), workers))
        .collect();
    (
        out,
        agg.delivered(),
        agg.lane_wins().to_vec(),
        agg.lane_suppressions().to_vec(),
        agg.handoffs(),
    )
}

proptest! {
    #[test]
    fn each_message_delivered_exactly_once_and_load_conserved(
        lanes in 1usize..7,
        txs in arb_txs(),
    ) {
        let rounds = rounds_for(&txs, lanes);
        let total_reports: u64 = rounds.iter().map(|r| r.len() as u64).sum();
        prop_assume!(total_reports > 0);
        let (deliveries, delivered, wins, suppressions, _) = run(&rounds, lanes, 1);

        // Exactly once: no (device, seq) key repeats anywhere in the
        // delivery stream, and every key heard at least once appears.
        let mut keys = HashSet::new();
        for d in deliveries.iter().flatten() {
            prop_assert!(
                keys.insert((d.device_id, d.seq)),
                "({}, {}) delivered twice", d.device_id, d.seq
            );
        }
        let heard: HashSet<(u32, u16)> = rounds
            .iter()
            .flatten()
            .map(|r| (r.device_id, r.seq))
            .collect();
        // Completeness: every key heard at least once was delivered.
        prop_assert_eq!(&keys, &heard);

        // Conservation: with unbounded lanes every report is either the
        // elected winner or a suppression.
        prop_assert_eq!(delivered, keys.len() as u64);
        prop_assert_eq!(delivered + suppressions.iter().sum::<u64>(), total_reports);
        prop_assert_eq!(wins.iter().sum::<u64>(), delivered);
    }

    #[test]
    fn winner_carries_the_best_rssi_of_its_transmission(
        lanes in 1usize..7,
        txs in arb_txs(),
    ) {
        let rounds = rounds_for(&txs, lanes);
        let (deliveries, ..) = run(&rounds, lanes, 1);
        // A delivery's election group is the copies of its transmission
        // (same device, seq, arrival) within the round it was delivered
        // — copies in later rounds are stragglers, suppressed, and not
        // part of the election.
        for (round, delivered) in rounds.iter().zip(&deliveries) {
            let mut best: HashMap<(u32, u16, Instant), f64> = HashMap::new();
            for r in round {
                let e = best.entry((r.device_id, r.seq, r.at)).or_insert(f64::MIN);
                if r.rssi_dbm > *e {
                    *e = r.rssi_dbm;
                }
            }
            for d in delivered {
                prop_assert_eq!(d.rssi_dbm, best[&(d.device_id, d.seq, d.at)]);
            }
        }
    }

    #[test]
    fn results_are_worker_count_independent(
        lanes in 1usize..7,
        txs in arb_txs(),
    ) {
        let rounds = rounds_for(&txs, lanes);
        let base = run(&rounds, lanes, 1);
        for workers in [3, 8] {
            prop_assert_eq!(&run(&rounds, lanes, workers), &base);
        }
    }
}
