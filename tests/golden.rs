//! Golden digests for the runners that never had a second
//! implementation: every report pinned in full.
//!
//! Each test runs one scenario at seeds 42, 7 and 9, at 1 and 4
//! workers, and compares the digest of its full report (see
//! `support/mod.rs`) with the pin. The runners whose frozen
//! pre-refactor copies were deleted — fleet, multi-gateway metro,
//! association, session, campaign — are pinned in `sap_diff.rs` and
//! `sim_diff.rs`, against the outputs those copies produced.

mod support;

use support::{assert_pinned, digest, per_seed, WORKERS};
use wile_scenarios::chaos::{run_chaos, ChaosConfig};
use wile_scenarios::metro::{run_metro, MetroConfig};
use wile_scenarios::mixed::{run_mixed, MixedConfig};
use wile_telemetry::Telemetry;

#[test]
fn metro_oracle_is_pinned() {
    // The oracle configuration keeps the full delivery stream and runs
    // a fault plan, so every delivered byte feeds the digest, through
    // the fault-filtered path too.
    assert_pinned(
        "run_metro(oracle)",
        [0xae146ad8ff8272e2, 0xabf3c625820fc6b9, 0xcbda4ba95cdc60f1],
        &WORKERS,
        |w| per_seed(|s| digest(&run_metro(&MetroConfig::oracle(s), w))),
    );
}

#[test]
fn chaos_smoke_is_pinned() {
    assert_pinned(
        "run_chaos(smoke)",
        [0x33accb249ac03a4b, 0xcd46886c75f43b29, 0x9f816926786bbede],
        &WORKERS,
        |w| {
            per_seed(|s| {
                digest(&run_chaos(
                    &ChaosConfig::smoke(s),
                    w,
                    &mut Telemetry::off(),
                    None,
                ))
            })
        },
    );
}

#[test]
fn mixed_smoke_is_pinned() {
    assert_pinned(
        "run_mixed(smoke)",
        [0xf2f3a438d0f9a6d8, 0x7cdfb370da1d5889, 0xd1f857c8f0e4158e],
        &WORKERS,
        |w| per_seed(|s| digest(&run_mixed(&MixedConfig::smoke(s), w))),
    );
}
