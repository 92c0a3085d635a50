//! The MAC service layer (`wile-mac`) observes and routes; it must
//! never steer.
//!
//! The SAP refactor re-routed every device-facing driver — fleet,
//! metro, campaign, session, association — through MCPS/MLME
//! primitives. Each runner was first proven byte-identical to a frozen
//! pre-refactor copy of itself; those copies are deleted, and their
//! outputs live on as the pins below (digests of the full report, see
//! `support/mod.rs`), across seeds and worker counts. The session
//! runner still has its synchronous original,
//! `wile::session::run_session`, and is compared with it directly.

mod support;

use support::{assert_pinned, digest, per_seed, SEEDS, SERIAL, WORKERS};
use wile_radio::time::Duration;
use wile_scenarios::assoc::{run_assoc_fleet, AssocConfig};
use wile_scenarios::campaign::{run_campaign, AdaptMode, CampaignConfig};
use wile_scenarios::metro::{run_metro, MetroConfig};
use wile_scenarios::session::{run_session_kernel, SessionConfig};
use wile_sim::engine::run_cells;
use wile_sim::fleet::{run_fleet, FleetConfig};
use wile_telemetry::Telemetry;

// The fleet, association and session worlds are short-range enough
// that no seeded draw changes an outcome, so their three seeds share
// one digest.

#[test]
fn sap_fleet_matches_direct_across_seeds() {
    assert_pinned("run_fleet(smoke)", [0x5a638e4d5b0c86d1; 3], &SERIAL, |_| {
        per_seed(|s| {
            let report = run_fleet(&FleetConfig::smoke(s));
            assert!(report.beacons_sent > 0);
            digest(&report)
        })
    });
}

#[test]
fn sap_metro_matches_direct_multi_gateway() {
    // Multi-gateway smoke world: dedup, handoffs, and bounded lanes all
    // active.
    assert!(run_metro(&MetroConfig::smoke(42), 4).stats.handoffs > 0);
    assert_pinned(
        "run_metro(smoke)",
        [0x193bb30f6a98dbc2, 0x634763e004eed101, 0x3bc8240c42324a8d],
        &WORKERS,
        |w| per_seed(|s| digest(&run_metro(&MetroConfig::smoke(s), w))),
    );
}

#[test]
fn sap_campaign_matches_reference_across_seeds_and_workers() {
    // The kernel campaign issues every uplink, repeat copy, and
    // feedback listen through the SAP. Feedback mode exercises
    // MCPS-DATA with an rx window plus MLME-WAKE.
    let mode = AdaptMode::Feedback {
        cfg: Default::default(),
        every: 2,
    };
    assert_pinned(
        "run_campaign(demo, default feedback)",
        [0xa6509fd002df9c19, 0xc76320a7488d2cf4, 0x0c4705d95df1c451],
        &WORKERS,
        |w| {
            let cfgs: Vec<CampaignConfig> = SEEDS
                .iter()
                .map(|&seed| CampaignConfig::demo(seed, mode.clone()))
                .collect();
            run_cells(cfgs.len(), w, |i| {
                digest(&run_campaign(&cfgs[i], &mut Telemetry::off()))
            })
        },
    );
}

#[test]
fn sap_session_matches_synchronous_runner_across_seeds() {
    use wile::inject::Injector;
    use wile::registry::DeviceIdentity;
    use wile::session::CommandQueue;
    use wile_radio::medium::{Medium, RadioConfig};
    use wile_radio::time::Instant;

    let cfg = |seed| SessionConfig {
        device_id: 9,
        seed,
        cycles: 8,
        window_every: 2,
        period: Duration::from_secs(10),
        commands: (0..4).map(|i| format!("cmd{i}").into_bytes()).collect(),
        gw_position_m: (2.0, 0.0),
    };
    for seed in SEEDS {
        let cfg = cfg(seed);
        // The synchronous pre-kernel session loop, world matched.
        let mut medium = Medium::new(Default::default(), cfg.seed);
        let dev = medium.attach(RadioConfig::default());
        let gw = medium.attach(RadioConfig {
            position_m: cfg.gw_position_m,
            ..Default::default()
        });
        let mut inj = Injector::new(DeviceIdentity::new(cfg.device_id), Instant::ZERO);
        let mut queue = CommandQueue::new();
        for body in &cfg.commands {
            queue.push(cfg.device_id, body);
        }
        let want = wile::session::run_session(
            &mut medium,
            dev,
            gw,
            &mut inj,
            &mut queue,
            cfg.cycles,
            cfg.window_every,
            cfg.period,
        );
        assert_eq!(
            run_session_kernel(&cfg),
            want,
            "session diverged at seed {seed}"
        );
    }
    // Both runners could drift together; the pin cannot.
    assert_pinned(
        "run_session_kernel",
        [0x0de52a4d3304ade0; 3],
        &SERIAL,
        |_| per_seed(|s| digest(&run_session_kernel(&cfg(s)))),
    );
}

#[test]
fn sap_assoc_matches_direct_across_seeds() {
    assert_pinned(
        "run_assoc_fleet(contended)",
        [0x8b5bfd5e46861332; 3],
        &SERIAL,
        |_| {
            per_seed(|s| {
                let report = run_assoc_fleet(&AssocConfig::contended(s));
                assert_eq!(report.connected, 6);
                digest(&report)
            })
        },
    );
}
