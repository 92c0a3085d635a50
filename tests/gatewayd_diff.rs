//! The gatewayd differential oracle: a recorded scenario replayed
//! through the ingestion service reproduces the in-process cluster
//! **byte for byte**.
//!
//! The contract under test is the whole point of the subsystem: the
//! service front-end (framed transport, staging, watermark-driven poll
//! train) adds *zero* behavioral surface over the library pipeline.
//! For each seed, the metro scenario runs once with a `.wcap` recorder
//! tapped into its raw per-lane frame stream; the capture then replays
//! through a fresh [`GatewaydCore`] and must reproduce the full
//! delivery stream, every cluster counter, the eviction list, and the
//! FNV-1a delivery digest — exactly, not approximately.

use std::collections::BTreeMap;
use std::io::Read;
use std::sync::{Arc, Mutex};
use wile_gatewayd::capture::{capture_metro, replay_capture};
use wile_gatewayd::daemon::{Daemon, DaemonOptions, DaemonState};
use wile_scenarios::metro::{run_metro_with_telemetry, MetroConfig};
use wile_telemetry::{json, Telemetry};

/// Record a smoke-scale metro run (full delivery retention) and return
/// the report plus the capture bytes.
fn record(seed: u64) -> (wile_scenarios::metro::MetroReport, Vec<u8>) {
    let cfg = MetroConfig::smoke(seed);
    assert!(cfg.keep_deliveries, "diff needs the full delivery stream");
    let (report, bytes, frames) = capture_metro(&cfg, 1, Vec::new()).expect("in-memory capture");
    assert!(frames > 0, "capture must record frames (seed {seed})");
    (report, bytes)
}

fn assert_replay_identical(seed: u64) {
    let (metro, bytes) = record(seed);
    let replay = replay_capture(&bytes, true, 1).expect("replay");
    assert_eq!(
        replay.delivery_digest, metro.delivery_digest,
        "digest mismatch (seed {seed})"
    );
    assert_eq!(
        replay.deliveries, metro.deliveries,
        "delivery stream mismatch (seed {seed})"
    );
    assert_eq!(replay.stats, metro.stats, "counter mismatch (seed {seed})");
    assert_eq!(
        replay.evicted, metro.evicted,
        "eviction mismatch (seed {seed})"
    );
    assert!(replay.matches_metro(&metro), "full identity (seed {seed})");
    assert_eq!(replay.rejected, 0, "clean capture must not be rejected");
    assert_eq!(replay.late, 0, "clean capture has no post-horizon frames");
    assert!(replay.frames_ledger_closes(), "frame ledger (seed {seed})");
}

#[test]
fn replay_is_byte_identical_seed_42() {
    assert_replay_identical(42);
}

#[test]
fn replay_is_byte_identical_seed_7() {
    assert_replay_identical(7);
}

#[test]
fn replay_is_byte_identical_seed_9() {
    assert_replay_identical(9);
}

/// Worker-count invariance carries through the service: replaying with
/// more aggregation workers changes nothing.
#[test]
fn replay_is_worker_count_invariant() {
    let (_, bytes) = record(42);
    let one = replay_capture(&bytes, true, 1).expect("replay x1");
    let four = replay_capture(&bytes, true, 4).expect("replay x4");
    assert_eq!(one, four);
}

/// A reader that tears the stream into awkward 7-byte reads — every
/// record boundary, length prefix, and frame body gets split.
struct Torn<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Read for Torn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = 7.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The daemon shell (decoder, staging, drain-at-EOF) over a maximally
/// torn transport still lands on the identical report.
#[test]
fn daemon_over_torn_transport_is_byte_identical() {
    let (metro, bytes) = record(42);
    let mut daemon = Daemon::new(
        DaemonOptions {
            workers: 1,
            keep_deliveries: true,
            config: None,
        },
        None,
    )
    .expect("daemon");
    let report = daemon
        .serve_reader(Torn {
            bytes: &bytes,
            pos: 0,
        })
        .expect("serve");
    assert!(report.matches_metro(&metro), "torn-transport identity");
    assert_eq!(report.delivery_digest, metro.delivery_digest);
}

/// A reader that hands the capture out in 4 KiB reads and, the first
/// time it passes `at`, scrapes the daemon state (the serve loop holds
/// no lock between reads, so this is a real mid-run scrape).
struct ScrapeMidRun<'a> {
    bytes: &'a [u8],
    pos: usize,
    at: usize,
    state: Arc<Mutex<DaemonState>>,
    scraped: Option<(String, String)>,
}

impl Read for ScrapeMidRun<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.scraped.is_none() && self.pos >= self.at {
            let st = self.state.lock().unwrap();
            self.scraped = Some((st.render_metrics(), st.status_json()));
        }
        let n = 4096.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A `/metrics` scrape as `name{labels}` → the rest of its line.
fn scrape_lines(metrics: &str) -> BTreeMap<String, String> {
    metrics
        .lines()
        .map(|line| {
            let mut parts = line.split_whitespace();
            let _kind = parts.next().unwrap();
            let key = parts.next().unwrap().to_string();
            (key, parts.collect::<Vec<_>>().join(" "))
        })
        .collect()
}

/// A counter's value, or a gauge's `last`.
fn scrape_value(lines: &BTreeMap<String, String>, key: &str) -> u64 {
    let v = &lines[key];
    v.strip_prefix("last=")
        .map_or(v.as_str(), |g| g.split_whitespace().next().unwrap())
        .parse()
        .unwrap()
}

/// The front-door ledger, and `/report`'s numbers equal to the scrape's
/// `gatewayd.*` instruments field for field.
fn assert_scrape_consistent(lines: &BTreeMap<String, String>, status: &str, when: &str) {
    let seen: u64 = lines
        .keys()
        .filter(|k| k.starts_with("gateway.frames_seen{"))
        .map(|k| scrape_value(lines, k))
        .sum();
    let v = |name: &str| scrape_value(lines, &format!("gatewayd.{name}"));
    assert_eq!(
        v("frames_in"),
        v("rejected") + v("staged") + v("late") + seen,
        "front-door ledger ({when})"
    );
    let json::Json::Obj(fields) = json::parse(status).unwrap() else {
        panic!("/report is not an object ({when}): {status}");
    };
    let numeric: BTreeMap<String, u64> = fields
        .iter()
        .filter_map(|(k, j)| j.as_f64().map(|x| (format!("gatewayd.{k}"), x as u64)))
        .collect();
    let scraped: BTreeMap<String, u64> = lines
        .keys()
        .filter(|k| k.starts_with("gatewayd."))
        .map(|k| (k.clone(), scrape_value(lines, k)))
        .collect();
    assert_eq!(numeric, scraped, "/report vs /metrics ({when})");
}

/// The daemon's scrape carries one ledger: the same keys mid-run and
/// after the drain, and after the drain every `cluster.*`/`gateway.*`
/// line equals the in-process metro telemetry's (the daemon records
/// no election histograms).
#[test]
fn scrape_ledger_matches_the_in_process_run() {
    let cfg = MetroConfig::smoke(42);
    let (_, bytes) = record(42);
    let mut daemon = Daemon::new(
        DaemonOptions {
            workers: 1,
            keep_deliveries: false,
            config: None,
        },
        None,
    )
    .expect("daemon");
    let state = daemon.state();
    let mut reader = ScrapeMidRun {
        bytes: &bytes,
        pos: 0,
        at: bytes.len() / 2,
        state: Arc::clone(&state),
        scraped: None,
    };
    daemon.serve_reader(&mut reader).expect("serve");
    let (live_metrics, live_status) = reader.scraped.expect("scraped mid-run");
    assert!(
        live_status.contains("\"phase\":\"running\""),
        "{live_status}"
    );
    let (done_metrics, done_status) = {
        let st = state.lock().unwrap();
        (st.render_metrics(), st.status_json())
    };
    assert!(
        done_status.contains("\"phase\":\"finished\""),
        "{done_status}"
    );

    let live = scrape_lines(&live_metrics);
    let done = scrape_lines(&done_metrics);
    assert!(
        live.keys().eq(done.keys()),
        "scrape key set changed at the drain ({} keys live, {} finished):\n\
         live:\n{live_metrics}\nfinished:\n{done_metrics}",
        live.len(),
        done.len()
    );
    // Deliveries are counted once, by the cluster ledger.
    assert!(done.contains_key("cluster.delivered"));
    assert!(!done.contains_key("gatewayd.delivered"));
    let frames_in = |lines| scrape_value(lines, "gatewayd.frames_in");
    assert!(
        frames_in(&live) < frames_in(&done),
        "the mid-run scrape came after the last frame"
    );
    assert_scrape_consistent(&live, &live_status, "mid-run");
    assert_scrape_consistent(&done, &done_status, "finished");

    let mut tel = Telemetry::new();
    run_metro_with_telemetry(&cfg, 1, &mut tel);
    let ledger = |lines: &BTreeMap<String, String>| -> BTreeMap<String, String> {
        lines
            .iter()
            .filter(|(k, _)| {
                (k.starts_with("cluster.") || k.starts_with("gateway."))
                    && !k.starts_with("cluster.election.")
            })
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    let in_process = ledger(&scrape_lines(&tel.registry().render()));
    assert!(!in_process.is_empty());
    assert_eq!(ledger(&done), in_process, "finished scrape vs in-process");
}
