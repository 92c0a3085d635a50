//! Acceptance tests for the deterministic parallel run engine: fanning
//! the PR-1 fault campaign across worker threads must be byte-for-byte
//! identical to running it serially — same reports, same rendered text
//! — for every worker count, because each cell owns its seeded world
//! and results merge in input order.

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

#[test]
fn parallel_campaign_batch_is_byte_identical_to_serial() {
    let cfgs: Vec<CampaignConfig> = [42u64, 7, 9]
        .iter()
        .map(|&seed| CampaignConfig::demo(seed, feedback_mode()))
        .collect();
    let serial: Vec<_> = cfgs
        .iter()
        .map(|cfg| run_campaign(cfg, &mut Telemetry::off()))
        .collect();

    for workers in [1usize, 2, 8] {
        let parallel = run_cells(cfgs.len(), workers, |i| {
            run_campaign(&cfgs[i], &mut Telemetry::off())
        });
        assert_eq!(serial, parallel, "reports diverge at {workers} workers");
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.render(),
                p.render(),
                "rendered text diverges at {workers} workers"
            );
        }
    }

    // The three seeds must produce three different worlds — otherwise
    // the equality above would be vacuous.
    assert_ne!(serial[0].render(), serial[1].render());
    assert_ne!(serial[1].render(), serial[2].render());
}

#[test]
fn parallel_baseline_pair_matches_serial() {
    let cfg = CampaignConfig::demo(42, feedback_mode());
    let baseline_cfg = CampaignConfig {
        mode: AdaptMode::Static(RepeatPolicy::SINGLE),
        ..cfg.clone()
    };
    let arms = [cfg, baseline_cfg];
    let serial: Vec<_> = arms
        .iter()
        .map(|cfg| run_campaign(cfg, &mut Telemetry::off()))
        .collect();
    for workers in [1usize, 2, 8] {
        let parallel = run_cells(arms.len(), workers, |i| {
            run_campaign(&arms[i], &mut Telemetry::off())
        });
        assert_eq!(parallel, serial, "arms diverge at {workers} workers");
    }
}

#[test]
fn worker_env_override_is_respected() {
    // WILE_WORKERS only changes *how many threads* the engine uses —
    // never the output. (Set per-process here; test binaries run tests
    // in one process, so keep the variable's lifetime to this test.)
    std::env::set_var("WILE_WORKERS", "3");
    let n = wile_sim::engine::available_workers();
    std::env::remove_var("WILE_WORKERS");
    assert_eq!(n, 3);
}
