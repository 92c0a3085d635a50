//! `wile-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <metro-dense|city-1m|gatewayd-replay> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in this one process on one thread (`workers = 1`)
//! and checks its outputs before it reports. With `--trace 0` it times
//! the end-to-end metrics; with `--trace 1` it makes the separate traced
//! run that splits the time across the layers and writes its spans under
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed check makes
//! `correct` false and the exit code 1. `BENCHMARK.md` documents every
//! workload and metric.

mod alloc;
mod replay;
mod sim;
mod speed;
mod stats;
mod stream;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use wile_radio::time::Duration;
use wile_scenarios::metro::MetroConfig;

#[global_allocator]
static HEAP: alloc::CountingAlloc = alloc::CountingAlloc::new();

const USAGE: &str = "usage: wile-perfbench --workload <metro-dense|city-1m|gatewayd-replay> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Expected delivery digests, `workload seed digest` per line.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

const MIB: f64 = 1024.0 * 1024.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E11: 8 gateways × 20k devices × one simulated hour.
    MetroDense,
    /// E14 shortened to five wake periods: 100 gateways, 1M devices.
    City1m,
    /// The `metro-dense` frame stream served through the daemon.
    GatewaydReplay,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::MetroDense,
        Workload::City1m,
        Workload::GatewaydReplay,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroDense => "metro-dense",
            Workload::City1m => "city-1m",
            Workload::GatewaydReplay => "gatewayd-replay",
        }
    }

    /// The metro world the workload simulates (or, for the replay,
    /// records in set-up).
    pub fn config(self, seed: u64) -> MetroConfig {
        match self {
            Workload::MetroDense | Workload::GatewaydReplay => MetroConfig::metro(seed),
            Workload::City1m => MetroConfig {
                duration: Duration::from_secs(300),
                ..MetroConfig::million(seed)
            },
        }
    }

    /// Host seconds one repeat of the workload's timed unit (a
    /// `run_metro` call, or a `serve_reader` call) takes on the 2-core
    /// host the benchmark was tuned on. The number of repeats follows
    /// from `--seconds` and this figure, not from the clock, so a slow
    /// spell on a shared host does not change how much work is measured.
    pub fn unit_s(self) -> f64 {
        match self {
            Workload::MetroDense => 12.0,
            Workload::City1m => 9.0,
            Workload::GatewaydReplay => 8.0,
        }
    }

    /// Repeats of the timed unit that fill `seconds` (at least one).
    pub fn repeats(self, seconds: f64) -> usize {
        ((seconds / self.unit_s()).ceil() as usize).max(1)
    }

    /// The expected delivery digest of the workload's world for `seed`,
    /// if one is recorded. The replay's world is `metro-dense`'s.
    pub fn expected_digest(self, seed: u64) -> Option<u64> {
        let world = match self {
            Workload::GatewaydReplay => Workload::MetroDense,
            w => w,
        };
        EXPECTED_DIGESTS.lines().find_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == world.name() && s.parse() == Ok(seed))
                .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
                .flatten()
        })
    }
}

/// What one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, or frames for the replay).
    pub attempted: u64,
    /// Attempted operations whose check failed.
    pub failed: u64,
    /// Every failed check, described.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Record a check; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problems.push(what());
        }
        ok
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A percentile metric; refused (and recorded as a failed check)
    /// when too few samples lie beyond it.
    pub fn percentile_metric(&mut self, name: &'static str, samples: &[f64], p: f64) {
        let v = stats::percentile(samples, p);
        self.check(v.is_some(), || {
            format!("{name}: {} samples cannot support p{p}", samples.len())
        });
        self.metric(name, v.unwrap_or(0.0), "ms");
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# {} seed {} ({}), workers 1, host cores {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut out = match (args.trace, args.workload) {
        (true, w) => trace::run(w, args.seed),
        (false, Workload::GatewaydReplay) => replay::run(args.seed, args.seconds),
        (false, w) => sim::run(w, args.seed, args.seconds),
    };
    for (name, value, _) in &mut out.metrics {
        if !value.is_finite() {
            out.problems.push(format!("{name} is not a number"));
            *value = 0.0;
        }
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_digests_parse() {
        assert_eq!(
            Workload::MetroDense.expected_digest(42),
            Some(0xced8_8782_b5f5_a6a9)
        );
        assert_eq!(
            Workload::GatewaydReplay.expected_digest(42),
            Workload::MetroDense.expected_digest(42)
        );
        assert_eq!(Workload::City1m.expected_digest(1234), None);
    }

    #[test]
    fn repeats_follow_seconds_not_the_clock() {
        assert_eq!(Workload::MetroDense.repeats(15.0), 2);
        assert_eq!(Workload::GatewaydReplay.repeats(15.0), 2);
        assert_eq!(Workload::City1m.repeats(0.0), 1);
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
