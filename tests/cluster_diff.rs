//! Differential acceptance tests for the cluster subsystem: a 1-gateway [`wile_cluster::GatewayCluster`]
//! — queue, aggregator, election and all — must reproduce a plain
//! [`wile::monitor::Gateway`] ingest byte-for-byte across seeds and
//! fault plans, and multi-gateway runs must be byte-identical at every
//! worker count.

use wile_scenarios::metro::{run_metro, run_metro_reference, MetroConfig};

#[test]
fn one_gateway_cluster_matches_plain_gateway_across_seeds() {
    for seed in [42u64, 7, 9] {
        let cfg = MetroConfig::oracle(seed);
        let reference = run_metro_reference(&cfg);
        let cluster = run_metro(&cfg, 1);
        // The stream itself: every delivery, in order, field for field.
        assert_eq!(
            reference.deliveries, cluster.deliveries,
            "delivery stream diverges (seed {seed})"
        );
        assert_eq!(
            reference.delivery_digest, cluster.delivery_digest,
            "digest diverges (seed {seed})"
        );
        assert_eq!(reference.beacons_sent, cluster.beacons_sent);
        // The cluster adds nothing and loses nothing on one lane: no
        // cross-gateway suppressions, no queue drops (unbounded lane),
        // every hear a win.
        assert_eq!(cluster.stats.delivered, reference.stats.delivered);
        assert_eq!(cluster.stats.total_suppressions(), 0, "seed {seed}");
        assert_eq!(cluster.stats.total_drops(), 0, "seed {seed}");
        assert_eq!(cluster.stats.lanes[0].hears, reference.stats.lanes[0].hears);
        // The oracle config's fault plan really bit: some messages
        // must have been lost, or the fault path was vacuous.
        assert!(
            cluster.stats.delivered < cluster.beacons_sent,
            "fault plan never engaged (seed {seed})"
        );
        assert!(cluster.stats.delivered > 0, "seed {seed}");
    }
}

#[test]
fn cluster_results_are_byte_identical_across_worker_counts() {
    for seed in [42u64, 7] {
        let cfg = MetroConfig::smoke(seed);
        let base = run_metro(&cfg, 1);
        for workers in [2usize, 8] {
            let got = run_metro(&cfg, workers);
            assert_eq!(
                base, got,
                "metro report diverges at {workers} workers (seed {seed})"
            );
        }
    }
}

#[test]
fn smoke_metro_exercises_the_cluster_for_real() {
    // Guard against vacuous equality above: the multi-gateway smoke
    // world must actually overlap (suppressions), elect across lanes
    // (wins on more than one lane), and hand off ownership.
    let report = run_metro(&MetroConfig::smoke(42), 2);
    assert!(report.stats.total_suppressions() > 0, "{:?}", report.stats);
    assert!(
        report.stats.lanes.iter().filter(|l| l.wins > 0).count() > 1,
        "{:?}",
        report.stats
    );
    assert!(report.stats.handoffs > 0, "{:?}", report.stats);
    assert!(report.stats.conserves_offered_load());
}
