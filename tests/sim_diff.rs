//! The `wile-sim` campaign port: the actor-kernel runner splits the
//! synchronous two-way feedback round into three same-instant events,
//! and must reproduce the pre-refactor event loop byte for byte.
//!
//! That loop was proven equal to the kernel runner and then deleted;
//! its reports live on as the pins below (digests of the full report,
//! see `support/mod.rs`), across seeds, adapt modes, the single-run
//! entry point and the parallel engine.

mod support;

use support::{assert_pinned, digest, per_seed, SEEDS, SERIAL, WORKERS};
use wile::reliability::{AdaptiveConfig, EnergyBudget, RepeatPolicy};
use wile_radio::time::Duration;
use wile_scenarios::campaign::{run_campaign, AdaptMode, CampaignConfig};
use wile_sim::engine::run_cells;
use wile_telemetry::Telemetry;

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

/// Each adapt mode with the reference loop's reports, one pin per seed.
fn modes() -> Vec<(AdaptMode, [u64; 3])> {
    vec![
        (
            AdaptMode::Static(RepeatPolicy::SINGLE),
            [0xa76b9e74bda7d6e8, 0x69ddfb95cc1a47af, 0x48b32219d1421df8],
        ),
        (
            feedback_mode(),
            [0x516887a03652bc3d, 0xa45ec589bd536eaf, 0x279f18ee5f51a505],
        ),
    ]
}

#[test]
fn kernel_campaign_matches_reference_across_seeds_and_modes() {
    for (mode, pinned) in modes() {
        assert_pinned(
            &format!("run_campaign(demo, {mode:?})"),
            pinned,
            &SERIAL,
            |_| {
                per_seed(|s| {
                    digest(&run_campaign(
                        &CampaignConfig::demo(s, mode.clone()),
                        &mut Telemetry::off(),
                    ))
                })
            },
        );
    }
}

#[test]
fn kernel_campaign_matches_reference_under_parallel_engine() {
    // The three demo campaigns run as one batch, so the pins also cover
    // the engine's index-ordered merge.
    for (mode, pinned) in modes() {
        let cfgs: Vec<CampaignConfig> = SEEDS
            .iter()
            .map(|&s| CampaignConfig::demo(s, mode.clone()))
            .collect();
        assert_pinned(
            &format!("run_cells(demo, {mode:?})"),
            pinned,
            &WORKERS,
            |w| {
                run_cells(cfgs.len(), w, |i| {
                    digest(&run_campaign(&cfgs[i], &mut Telemetry::off()))
                })
            },
        );
    }
}

#[test]
fn feedback_exchange_actually_happens_in_both_runners() {
    // Guard against a vacuous pin: the feedback arm must really
    // exercise the three-event two-way split, which the serial and the
    // parallel-engine pins above both cover.
    let cfg = CampaignConfig::demo(42, feedback_mode());
    let single = run_campaign(&cfg, &mut Telemetry::off());
    assert!(single.feedback_received > 0, "{single:?}");
}
