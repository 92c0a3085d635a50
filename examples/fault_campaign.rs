//! Fault-injection campaign (E8): a four-device fleet runs through a
//! scheduled disturbance timeline — a long 2.4 GHz burst-loss phase, a
//! duty-cycled jammer, a gateway outage, and a thermal clock-skew step —
//! twice: once with the feedback-driven adaptive repeat policy, once
//! with the static single-copy baseline, on the *same* seeded faults.
//!
//! The report shows what adaptation buys on the unacknowledged uplink:
//! delivery ratio per fault phase, recovery time after each disturbance
//! ends, and the energy cost of the extra copies against the configured
//! per-message budget.
//!
//! ```sh
//! cargo run --release --example fault_campaign
//! ```

use wile::reliability::{AdaptiveConfig, EnergyBudget, RepeatPolicy};
use wile_radio::time::Duration;
use wile_scenarios::campaign::{run_campaign, AdaptMode, CampaignConfig};
use wile_telemetry::Telemetry;

fn main() {
    let mode = AdaptMode::Feedback {
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
    };
    let cfg = CampaignConfig::demo(42, mode);
    let baseline_cfg = CampaignConfig {
        mode: AdaptMode::Static(RepeatPolicy::SINGLE),
        ..cfg.clone()
    };
    let adaptive = run_campaign(&cfg, &mut Telemetry::off());
    let baseline = run_campaign(&baseline_cfg, &mut Telemetry::off());

    println!("{}", adaptive.render());
    println!("{}", baseline.render());

    println!("phase-by-phase delivery, adaptive vs static single-copy:");
    for (a, b) in adaptive.phases.iter().zip(baseline.phases.iter()) {
        println!(
            "  {:<28} {:>5.1}%  vs {:>5.1}%   ({:+.1} pp)",
            a.label,
            a.ratio() * 100.0,
            b.ratio() * 100.0,
            (a.ratio() - b.ratio()) * 100.0,
        );
    }
    println!(
        "energy: {:.1} µJ/msg adaptive (ceiling 800) vs {:.1} µJ/msg static",
        adaptive.energy_uj_per_message, baseline.energy_uj_per_message,
    );

    // Re-run the adaptive arm with full telemetry (identical report —
    // observation never steers) and show the deterministic snapshot.
    let mut tel = Telemetry::with_trace();
    let observed = run_campaign(&cfg, &mut tel);
    assert_eq!(observed, adaptive, "telemetry must not steer the run");
    let tel_report = tel.report();
    println!("\n{}", tel_report.render_with_prof());
    println!(
        "telemetry digest    {:#018x}   trace events {}",
        tel_report.digest(),
        tel.trace().len()
    );
}
