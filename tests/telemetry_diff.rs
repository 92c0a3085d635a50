//! The telemetry differential guarantee, end to end:
//!
//! 1. **Observation changes nothing.** Running the metro scenario (and
//!    a fault campaign) with telemetry enabled produces a report that
//!    is `==` (bit-identical — [`MetroReport`] derives `PartialEq`
//!    over every counter, delivery, and digest) to the
//!    telemetry-disabled run.
//! 2. **Snapshots are worker-count independent.** The rendered
//!    [`TelemetryReport`] — and therefore its FNV digest — is
//!    byte-identical at 1, 4, and 8 aggregation workers, across seeds,
//!    because per-shard registries merge in shard order and every
//!    instrument is integer-valued (order-free addition).
//! 3. **The E12 sample trace is pinned.** The traced fault campaign's
//!    JSONL run trace has a fixed event count and FNV-1a digest, so a
//!    change to what `Ctx::emit` or a span records shows up here.
//! 4. **The metro smoke snapshot is pinned.** `MetroConfig::smoke(42)`
//!    at one worker has a fixed telemetry digest, so moving the fleet's
//!    MAC counters or spans shows up here.

use wile::reliability::{AdaptiveConfig, EnergyBudget, RepeatPolicy};
use wile_radio::time::Duration;
use wile_scenarios::campaign::{run_campaign, AdaptMode, CampaignConfig};
use wile_scenarios::metro::{run_metro, run_metro_with_telemetry, MetroConfig};
use wile_telemetry::{fnv1a, Telemetry};

const SEEDS: [u64; 3] = [42, 7, 9];

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

#[test]
fn metro_report_is_identical_with_and_without_telemetry() {
    for seed in SEEDS {
        let cfg = MetroConfig::smoke(seed);
        let plain = run_metro(&cfg, 2);
        let mut tel = Telemetry::with_trace();
        let observed = run_metro_with_telemetry(&cfg, 2, &mut tel);
        assert_eq!(plain, observed, "seed {seed}: telemetry steered the run");
        // And the instrumented run actually recorded the world it saw.
        let reg = tel.registry();
        assert_eq!(
            reg.counter("metro.beacons_sent", &[]),
            Some(observed.beacons_sent),
            "seed {seed}"
        );
        assert_eq!(
            reg.counter("cluster.delivered", &[]),
            Some(observed.stats.delivered),
            "seed {seed}"
        );
        assert_eq!(reg.counter("cluster.conservation.holds", &[]), Some(1));
        assert!(
            reg.counter("kernel.events_dispatched", &[]).unwrap() > 0,
            "seed {seed}"
        );
        assert!(!tel.trace().is_empty(), "seed {seed}: trace not recorded");
    }
}

#[test]
fn metro_telemetry_digest_is_worker_count_independent() {
    for seed in SEEDS {
        let cfg = MetroConfig::smoke(seed);
        let run = |workers: usize| {
            let mut tel = Telemetry::new();
            let report = run_metro_with_telemetry(&cfg, workers, &mut tel);
            (report, tel.report())
        };
        let (base_report, base_tel) = run(1);
        for workers in [4, 8] {
            let (report, tel) = run(workers);
            assert_eq!(report, base_report, "seed {seed} workers {workers}");
            assert_eq!(
                tel.render(),
                base_tel.render(),
                "seed {seed} workers {workers}: snapshot text diverged"
            );
            assert_eq!(
                tel.digest(),
                base_tel.digest(),
                "seed {seed} workers {workers}"
            );
        }
    }
}

#[test]
fn campaign_report_is_identical_with_and_without_telemetry() {
    let cfg = CampaignConfig::demo(42, feedback_mode());
    let plain = run_campaign(&cfg, &mut Telemetry::off());
    let mut tel = Telemetry::with_trace();
    let observed = run_campaign(&cfg, &mut tel);
    assert_eq!(plain, observed, "telemetry steered the campaign");
    // dev.cycle spans closed into the span histogram, sim-time stamped.
    let spans = tel
        .registry()
        .histogram("span_ns", &[("span", "dev.cycle".into())])
        .expect("dev.cycle spans recorded");
    assert!(spans.count() > 0);
    // The JSONL trace starts with the schema-versioned header.
    let jsonl = tel.trace().to_jsonl();
    let header = jsonl.lines().next().unwrap();
    assert!(header.contains("\"schema\":\"wile.run-trace\""), "{header}");
    assert_eq!(jsonl.lines().count(), tel.trace().len() + 1);
}

#[test]
fn campaign_telemetry_is_reproducible() {
    let cfg = CampaignConfig::demo(7, feedback_mode());
    let (mut t1, mut t2) = (Telemetry::with_trace(), Telemetry::with_trace());
    let r1 = run_campaign(&cfg, &mut t1);
    let r2 = run_campaign(&cfg, &mut t2);
    assert_eq!(r1, r2);
    assert_eq!(t1.report().render(), t2.report().render());
    assert_eq!(t1.trace().to_jsonl(), t2.trace().to_jsonl());
}

#[test]
fn e12_sample_trace_is_pinned() {
    let mut tel = Telemetry::with_trace();
    run_campaign(&CampaignConfig::demo(42, feedback_mode()), &mut tel);
    let jsonl = tel.trace().to_jsonl();
    assert_eq!(tel.trace().len(), 4_281, "trace event count");
    let digest = fnv1a(jsonl.as_bytes());
    assert_eq!(digest, 0xe5f5_97b4_ef95_536c, "trace digest {digest:#018x}");
}

#[test]
fn metro_smoke_telemetry_snapshot_is_pinned() {
    let mut tel = Telemetry::new();
    let report = run_metro_with_telemetry(&MetroConfig::smoke(42), 1, &mut tel);
    let reg = tel.registry();
    // Every fleet wake is one MCPS-DATA request with one confirm.
    for name in ["mac.mcps_data.request", "mac.mcps_data.confirm"] {
        assert_eq!(reg.counter(name, &[]), Some(report.beacons_sent), "{name}");
    }
    let digest = tel.report().digest();
    assert_eq!(
        digest, 0x1d86_4f2e_862d_5d00,
        "snapshot digest {digest:#018x}"
    );
}
