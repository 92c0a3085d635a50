//! Acceptance tests for the fault-injection campaign runner: the
//! adaptive repeat policy must measurably out-deliver the static
//! single-copy baseline under bursty loss, stay inside its energy
//! budget while doing it, and the whole campaign must be exactly
//! reproducible from its seed.

use wile::reliability::{AdaptiveConfig, EnergyBudget, RepeatPolicy};
use wile_radio::time::Duration;
use wile_scenarios::campaign::{run_campaign, AdaptMode, CampaignConfig};
use wile_telemetry::Telemetry;

const CEILING_UJ: f64 = 800.0;

fn adaptive_cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        target_delivery: 0.9,
        base: RepeatPolicy::SINGLE,
        budget: EnergyBudget {
            per_message_uj_ceiling: CEILING_UJ,
            per_copy_uj: 100.0,
        },
        backoff_step: Duration::from_secs(1),
        max_backoff: Duration::from_secs(8),
    }
}

fn feedback_mode() -> AdaptMode {
    AdaptMode::Feedback {
        cfg: adaptive_cfg(),
        every: 2,
    }
}

#[test]
fn adaptive_beats_single_copy_baseline_under_burst_loss() {
    let cfg = CampaignConfig::demo(42, feedback_mode());
    let baseline_cfg = CampaignConfig {
        mode: AdaptMode::Static(RepeatPolicy::SINGLE),
        ..cfg.clone()
    };
    let adaptive = run_campaign(&cfg, &mut Telemetry::off());
    let baseline = run_campaign(&baseline_cfg, &mut Telemetry::off());

    let a = adaptive.phase("burst-loss").expect("burst phase in plan");
    let b = baseline.phase("burst-loss").expect("burst phase in plan");
    assert!(a.sent > 5 && b.sent > 5, "phase must carry traffic");
    assert!(
        a.ratio() >= b.ratio() + 0.20,
        "adaptation must buy >= 20 percentage points under burst loss: \
         adaptive {:.1}% vs baseline {:.1}%",
        a.ratio() * 100.0,
        b.ratio() * 100.0,
    );

    // The extra copies must stay inside the configured energy budget.
    assert!(
        adaptive.energy_uj_per_message <= CEILING_UJ,
        "adapted energy {:.1} µJ/msg exceeds the {:.0} µJ ceiling",
        adaptive.energy_uj_per_message,
        CEILING_UJ,
    );

    // And adaptation must have actually engaged, not won by luck.
    assert!(
        adaptive.feedback_received > 0,
        "no feedback round completed"
    );
    assert!(adaptive.avg_copies() > 1.2, "policy never raised k");
    assert!((baseline.avg_copies() - 1.0).abs() < 1e-9);
}

#[test]
fn outage_recovery_is_measured() {
    let cfg = CampaignConfig::demo(42, feedback_mode());
    let report = run_campaign(&cfg, &mut Telemetry::off());
    let outage = report.phase("outage").expect("outage phase in plan");
    // Every device must be heard from again after the gateway returns,
    // within a couple of periods (plus adaptive backoff).
    let rec = outage.recovery.expect("fleet recovered after the outage");
    assert!(
        rec <= Duration::from_secs(30),
        "recovery took {} after the outage ended",
        rec
    );
}

#[test]
fn same_seed_campaigns_are_byte_identical() {
    let cfg = CampaignConfig::demo(7, feedback_mode());
    let first = run_campaign(&cfg, &mut Telemetry::off());
    let second = run_campaign(&cfg, &mut Telemetry::off());
    assert_eq!(first, second);
    assert_eq!(first.render(), second.render());

    // A different seed must actually change the world (guards against
    // the seed being ignored somewhere in the pipeline).
    let other = run_campaign(
        &CampaignConfig::demo(8, feedback_mode()),
        &mut Telemetry::off(),
    );
    assert_ne!(first.render(), other.render());
}

#[test]
fn blind_ramp_operates_without_a_return_path() {
    let cfg = CampaignConfig::demo(9, AdaptMode::Blind(adaptive_cfg()));
    let report = run_campaign(&cfg, &mut Telemetry::off());
    // Blind mode never hears the gateway...
    assert_eq!(report.feedback_received, 0);
    // ...but carrier sense still raises k during the jammer phase.
    assert!(report.avg_copies() > 1.0, "blind ramp never engaged");
    // Budget holds with no feedback at all.
    assert!(report.energy_uj_per_message <= CEILING_UJ);
}
