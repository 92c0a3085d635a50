//! Pinned-digest helpers shared by the golden suites (`golden.rs`,
//! `sap_diff.rs`, `sim_diff.rs`).
//!
//! A pin is FNV-1a over a report's `Debug` rendering. Every field of
//! the report (counters, delivery streams, digests, floats by their
//! exact rendering) feeds the digest, so any behavioural drift in the
//! simulator, the MAC service layer, the kernel, the cluster, or a
//! runner's orchestration changes it. A pin is only ever updated on
//! purpose, together with an EXPERIMENTS.md note saying why the outputs
//! moved.

// Each suite compiles its own copy and uses a different subset.
#![allow(dead_code)]

use std::fmt::Debug;

pub const SEEDS: [u64; 3] = [42, 7, 9];
/// Worker counts share one pinned value per seed: results must be
/// byte-identical at any setting.
pub const WORKERS: [usize; 2] = [1, 4];
/// For runners without a worker count.
pub const SERIAL: [usize; 1] = [1];

/// FNV-1a over the report's `Debug` rendering.
pub fn digest(report: &impl Debug) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Run the scenario at every worker count (`run(workers)` returns one
/// digest per seed, in [`SEEDS`] order) and require each digest to
/// equal its seed's pin. A failure lists every drifted run.
pub fn assert_pinned(
    scenario: &str,
    pinned: [u64; 3],
    workers: &[usize],
    run: impl Fn(usize) -> Vec<u64>,
) {
    let mut drifted = Vec::new();
    for &w in workers {
        let got = run(w);
        assert_eq!(got.len(), SEEDS.len());
        for ((seed, want), got) in SEEDS.iter().zip(pinned).zip(got) {
            if got != want {
                drifted.push(format!(
                    "seed {seed}, workers {w}: {got:#018x} (pinned {want:#018x})"
                ));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "{scenario} drifted from its pinned report:\n{}",
        drifted.join("\n")
    );
}

pub fn per_seed(f: impl Fn(u64) -> u64) -> Vec<u64> {
    SEEDS.iter().map(|&s| f(s)).collect()
}
