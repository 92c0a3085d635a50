//! The traced run: one extra run per workload that splits its time
//! across the layers by timing the benchmark's own calls into each
//! layer's public functions, plus a telemetry pass for the work counts.
//!
//! Every traced run covers the whole chain for its workload's world, in
//! this order: a zero-duration world, one untraced timed `run_metro`,
//! the telemetry pass, a standalone timer wheel driven with the wake
//! train, the recording of the frame stream, two untraced
//! `serve_reader` calls around the daemon-stack split run four times
//! (untraced, traced, traced, untraced, for the shell residual and the
//! tracing overhead), and the public-call pipeline split. Spans are kept
//! in memory and written to `perfbench/out/` at the end.

use crate::replay;
use crate::stream::{Watermarked, CHUNK};
use crate::{sim, Outcome, Workload, HEAP};
use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant as WallInstant;
use wile::monitor::Gateway;
use wile_cluster::{ClusterAggregator, ClusterDelivery, GatewayReport, ReportQueue, RoamingConfig};
use wile_gatewayd::capture::ReplayError;
use wile_gatewayd::codec::FrameDecoder;
use wile_gatewayd::{GatewaydConfig, GatewaydCore, WireRecord};
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::{Duration, Instant};
use wile_radio::EventQueue;
use wile_scenarios::metro::{
    fold_delivery, run_metro, run_metro_with_telemetry, MetroConfig, FNV_OFFSET,
};
use wile_sim::ingest::GatewayIngest;
use wile_telemetry::Telemetry;

/// Where traced runs write their spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

/// In-memory span recorder. Disabled, it only runs the timed calls.
pub struct Spans {
    enabled: bool,
    origin: WallInstant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: WallInstant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start a new run id; later spans carry it.
    fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time `f` as a span named `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let v = f();
        self.exit();
        v
    }

    /// Total self time of the spans named `name`, seconds: each span's
    /// duration minus the part its child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.end_ns - s.start_ns - c)
            .sum();
        ns as f64 * 1e-9
    }

    /// Total duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Write one JSON line per span.
    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Decode every complete record `dec` holds after pushing `bytes`.
fn decode_all(
    dec: &mut FrameDecoder,
    bytes: &[u8],
    recs: &mut Vec<WireRecord>,
) -> Result<(), ReplayError> {
    dec.push(bytes);
    while let Some(body) = dec.next_record()? {
        recs.push(WireRecord::decode(&body)?);
    }
    Ok(())
}

/// What the daemon-stack split counted.
#[derive(Debug, Default, PartialEq)]
pub struct DaemonSplit {
    /// Wire records decoded.
    pub records: u64,
    /// Frames the core refused.
    pub rejected: u64,
    /// The finished core's delivery digest.
    pub digest: u64,
    /// Frames the core was offered.
    pub frames_in: u64,
    /// Whether the core's frame ledger closed.
    pub ledger_closes: bool,
}

/// Feed the watermarked stream through the daemon's record stack and
/// core the way `serve_reader` does, read by read, minus the shell:
/// `codec` spans cover `FrameDecoder::next_record` + `WireRecord::decode`
/// for each read, `core.offer` spans the `GatewaydCore::offer` calls for
/// its frames, and `core.poll` spans each watermark's
/// `GatewaydCore::advance_to` and the final `finish`.
pub fn daemon_split(stream: &Watermarked, spans: &mut Spans) -> Result<DaemonSplit, ReplayError> {
    let mut split = DaemonSplit::default();
    let mut reader = stream.reader();
    let mut buf = vec![0u8; CHUNK];
    let mut dec = FrameDecoder::new();
    let mut recs = Vec::new();
    let mut core = GatewaydCore::new(GatewaydConfig::from_header(&stream.header));
    let mut out: Vec<ClusterDelivery> = Vec::new();
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            break;
        }
        spans.time("codec", || decode_all(&mut dec, &buf[..n], &mut recs))?;
        split.records += recs.len() as u64;
        if let [WireRecord::Advance { to }] = recs[..] {
            spans.time("core.poll", || core.advance_to(to, &mut out));
            recs.clear();
        } else {
            spans.time("core.offer", || {
                for rec in recs.drain(..) {
                    match rec {
                        WireRecord::Frame(f) => {
                            if core.offer(f.lane, f.frame, &mut out).is_err() {
                                split.rejected += 1;
                            }
                        }
                        WireRecord::Advance { to } => core.advance_to(to, &mut out),
                        WireRecord::Header(_) | WireRecord::Shutdown => {}
                    }
                }
            });
        }
        out.clear();
    }
    let report = spans.time("core.poll", || core.finish(&mut out));
    split.digest = report.delivery_digest;
    split.frames_in = report.frames_in;
    split.ledger_closes = report.frames_ledger_closes() && report.late == 0;
    Ok(split)
}

/// What the public-call pipeline split counted.
#[derive(Debug, Default, PartialEq)]
pub struct PipelineSplit {
    /// Frames handed to `GatewayIngest::ingest_when`.
    pub frames: u64,
    /// Copies the lanes' gateways dropped as duplicates.
    pub duplicates: u64,
    /// Reports the lane queues dropped.
    pub queue_drops: u64,
    /// Highest lane queue depth.
    pub queue_high_water: u64,
    /// Reports handed to `ClusterAggregator::round`.
    pub reports: u64,
    /// Deliveries the rounds elected.
    pub delivered: u64,
    /// Ownership handoffs.
    pub handoffs: u64,
    /// Devices evicted as stale.
    pub evicted: u64,
    /// Polls run.
    pub polls: u64,
    /// FNV-1a digest over the deliveries.
    pub digest: u64,
}

/// The cluster's fault-free poll, rebuilt from the public calls of the
/// layers under it so each can be timed on its own: per lane
/// `GatewayIngest::ingest_when` (`ingest`), then
/// `GatewayReport::from_received` into the lane's `ReportQueue` and out
/// into the batch (`queue`); then `ClusterAggregator::round`
/// (`aggregator`), `fold_delivery` (`digest`) and
/// `ClusterAggregator::evict_stale` (`evict`). Frames come from the
/// watermarked stream, decoded outside the spans; each watermark runs
/// one poll. The digest must equal the end-to-end run's.
pub fn pipeline_split(
    stream: &Watermarked,
    spans: &mut Spans,
) -> Result<PipelineSplit, ReplayError> {
    let h = &stream.header;
    let lanes = h.gateways as usize;
    // The cluster's own construction, as `GatewaydCore` configures it.
    let roaming = RoamingConfig::default();
    let stale_after = h.stale_after;
    let mut ingest: Vec<GatewayIngest> = (0..lanes)
        .map(|i| GatewayIngest::new(RadioId(i as u32), Gateway::new()))
        .collect();
    let mut queues: Vec<ReportQueue> = (0..lanes)
        .map(|_| match h.queue_capacity {
            Some(cap) => ReportQueue::bounded(cap),
            None => ReportQueue::unbounded(),
        })
        .collect();
    let mut agg = ClusterAggregator::new(lanes, 8, roaming);
    let mut staged: Vec<Vec<RxFrame>> = vec![Vec::new(); lanes];
    let mut batch: Vec<GatewayReport> = Vec::new();
    let mut ordinal = 0u64;
    let mut split = PipelineSplit {
        digest: FNV_OFFSET,
        ..Default::default()
    };

    let mut reader = stream.reader();
    let mut buf = vec![0u8; CHUNK];
    let mut dec = FrameDecoder::new();
    let mut recs = Vec::new();
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            break;
        }
        decode_all(&mut dec, &buf[..n], &mut recs)?;
        for rec in recs.drain(..) {
            let to = match rec {
                WireRecord::Frame(f) => {
                    split.frames += 1;
                    staged[f.lane as usize].push(f.frame);
                    continue;
                }
                WireRecord::Advance { to } => to,
                WireRecord::Header(_) | WireRecord::Shutdown => continue,
            };
            spans.enter("pipeline.poll");
            for lane in 0..lanes {
                let frames = &mut staged[lane];
                let gw = &mut ingest[lane];
                let got = spans.time("ingest", || {
                    gw.ingest_when(frames.drain(..), None, |_| true)
                });
                let queue = &mut queues[lane];
                spans.time("queue", || {
                    for r in got {
                        queue.push(GatewayReport::from_received(lane, ordinal, r));
                        ordinal += 1;
                    }
                    queue.drain_into(&mut batch);
                });
            }
            split.reports += batch.len() as u64;
            let got = spans.time("aggregator", || agg.round(&mut batch, 1));
            split.delivered += got.len() as u64;
            let digest = &mut split.digest;
            spans.time("digest", || {
                got.iter().for_each(|d| fold_delivery(digest, d))
            });
            split.evicted += spans
                .time("evict", || agg.evict_stale(to, stale_after))
                .len() as u64;
            split.polls += 1;
            spans.exit();
        }
    }
    split.duplicates = ingest.iter().map(|g| g.gateway().stats().duplicates).sum();
    split.queue_drops = queues.iter().map(|q| q.drops()).sum();
    split.queue_high_water = queues
        .iter()
        .map(|q| q.high_water() as u64)
        .max()
        .unwrap_or(0);
    split.handoffs = agg.handoffs();
    Ok(split)
}

/// A standalone timer wheel driven with the world's wake train: every
/// device's first wake scheduled as one batch, each pop rescheduling
/// the next wake while it falls within the run. Returns the events
/// popped and the wall time, seconds.
pub fn wheel_train(cfg: &MetroConfig) -> (u64, f64) {
    let t0 = WallInstant::now();
    let mut q: EventQueue<u32> = EventQueue::new();
    let stagger = Duration::from_nanos(cfg.period.as_nanos() / cfg.devices as u64);
    q.schedule_batch(Instant::from_ms(500), stagger, 0..cfg.devices as u32);
    let end = Instant::ZERO + cfg.duration;
    let mut events = 0u64;
    while let Some((at, device)) = q.pop() {
        events += 1;
        let next = at + cfg.period;
        if next <= end {
            q.schedule(next, device);
        }
    }
    (events, t0.elapsed().as_secs_f64())
}

/// The telemetry pass's counts, read back from the registry.
struct Counts {
    events: u64,
    queue_high_water: u64,
    tx: u64,
    culled: u64,
    delivered: u64,
    per_losses: u64,
    collision_losses: u64,
    cache_hits: u64,
    cache_misses: u64,
    retained_high_water: u64,
}

fn telemetry_pass(cfg: &MetroConfig, out: &mut Outcome) -> (Counts, u64) {
    let mut tel = Telemetry::new();
    let report = run_metro_with_telemetry(cfg, 1, &mut tel);
    let reg = tel.registry();
    let mut counter = |name: &'static str| {
        let v = reg.counter(name, &[]);
        out.check(v.is_some(), || format!("telemetry has no counter {name}"));
        v.unwrap_or(0)
    };
    let mut c = Counts {
        events: counter("kernel.events_dispatched"),
        queue_high_water: 0,
        tx: counter("medium.tx_attempts"),
        culled: counter("medium.culled_sensitivity"),
        delivered: counter("medium.delivered"),
        per_losses: counter("medium.per_losses"),
        collision_losses: counter("medium.collision_losses"),
        cache_hits: counter("medium.cache.hits"),
        cache_misses: counter("medium.cache.misses"),
        retained_high_water: 0,
    };
    let mut gauge = |name: &'static str| {
        let v = reg.gauge(name, &[]).map(|g| g.high_water().max(0) as u64);
        out.check(v.is_some(), || format!("telemetry has no gauge {name}"));
        v.unwrap_or(0)
    };
    c.queue_high_water = gauge("kernel.queue.high_water");
    c.retained_high_water = gauge("medium.retained.high_water");
    (c, report.delivery_digest)
}

/// The traced run of workload `w` for `seed`.
pub fn run(w: Workload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let cfg = w.config(seed);
    let expected = w.expected_digest(seed);
    let attempt = |out: &mut Outcome, ok: bool| {
        out.attempted += 1;
        out.failed += u64::from(!ok);
    };

    // Simulator layers.
    let zero = MetroConfig {
        duration: Duration::ZERO,
        ..cfg.clone()
    };
    let base = HEAP.reset_peak();
    let t0 = WallInstant::now();
    let zero_report = run_metro(&zero, 1);
    let build_s = t0.elapsed().as_secs_f64();
    let bytes_per_device = (HEAP.peak() - base) as f64 / cfg.devices as f64;
    let ok = sim::check_report(&mut out, &zero, &zero_report, None, None);
    attempt(&mut out, ok);

    let sim_run = sim::timed_metro(&cfg);
    let digest = sim_run.report.delivery_digest;
    let ok = sim::check_report(&mut out, &cfg, &sim_run.report, expected, None);
    attempt(&mut out, ok);
    let (counts, tel_digest) = telemetry_pass(&cfg, &mut out);
    let ok = out.check(tel_digest == digest, || {
        format!("telemetry pass digest {tel_digest:#018x} != {digest:#018x}")
    });
    attempt(&mut out, ok);
    let (wheel_events, wheel_s) = wheel_train(&cfg);
    let ok = out.check(wheel_events == sim_run.report.beacons_sent, || {
        format!(
            "wheel popped {wheel_events} wakes, fleet sent {}",
            sim_run.report.beacons_sent
        )
    });
    attempt(&mut out, ok);

    // Daemon layers.
    let (metro, stream, _) = replay::record(&cfg);
    let ok = out.check(metro.delivery_digest == digest, || {
        "recording run digest differs".into()
    });
    attempt(&mut out, ok);
    // Serve, untraced split, traced split twice, untraced split, serve:
    // each kind's two passes sit symmetrically about the same midpoint,
    // so a steady drift in host speed cancels from the shell residual
    // (serve minus the traced calls) and from the tracing overhead
    // (traced minus untraced). Both traced passes record spans, and the
    // daemon layers' times are their mean.
    let serve = |out: &mut Outcome| {
        let s = replay::serve(&stream);
        let failed = replay::check_serve(out, &s, &stream, &metro);
        attempt(out, failed == 0);
        s.wall_s
    };
    let mut spans = Spans::new(true);
    let timed = |spans: &mut Spans| {
        spans.next_run();
        let t0 = WallInstant::now();
        let split = daemon_split(&stream, spans);
        (split, t0.elapsed().as_secs_f64())
    };
    let serve_1 = serve(&mut out);
    let (untraced, untraced_1) = timed(&mut Spans::new(false));
    let (daemon, traced_1) = timed(&mut spans);
    let (_, traced_2) = timed(&mut spans);
    let (_, untraced_2) = timed(&mut Spans::new(false));
    let serve_s = (serve_1 + serve(&mut out)) / 2.0;
    let (traced_s, untraced_s) = (traced_1 + traced_2, untraced_1 + untraced_2);
    let daemon = match (daemon, untraced) {
        (Ok(d), Ok(u)) => {
            let ok = out.check(d == u && d.digest == digest && d.ledger_closes, || {
                format!("daemon split {d:?} / untraced {u:?} / digest {digest:#018x}")
            });
            attempt(&mut out, ok);
            d
        }
        (d, u) => {
            out.check(false, || format!("daemon split failed: {d:?} / {u:?}"));
            attempt(&mut out, false);
            DaemonSplit::default()
        }
    };

    // Pipeline layers.
    spans.next_run();
    let pipeline = match pipeline_split(&stream, &mut spans) {
        Ok(p) => {
            let ok = out.check(
                p.digest == digest && p.delivered == metro.stats.delivered,
                || {
                    format!(
                    "pipeline split digest {:#018x} ({} delivered), end to end {digest:#018x} ({})",
                    p.digest, p.delivered, metro.stats.delivered
                )
                },
            );
            attempt(&mut out, ok);
            p
        }
        Err(e) => {
            out.check(false, || format!("pipeline split failed: {e}"));
            attempt(&mut out, false);
            PipelineSplit::default()
        }
    };
    drop(stream);

    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{seed}.jsonl", w.name()));
    let written = fs::create_dir_all(OUT_DIR).and_then(|()| spans.write_jsonl(&path));
    out.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    println!("spans: {} in {}", spans.spans.len(), path.display());

    let sim_wall = sim_run.wall_s;
    let ingest_s = spans.self_s("ingest");
    let queue_s = spans.self_s("queue");
    let aggregator_s = spans.self_s("aggregator");
    let digest_s = spans.self_s("digest");
    let evict_s = spans.self_s("evict");
    let pipeline_s = spans.total_s("pipeline.poll");
    let codec_s = spans.self_s("codec") / 2.0;
    let offer_s = spans.self_s("core.offer") / 2.0;
    let poll_s = spans.self_s("core.poll") / 2.0;
    let coverage = match w {
        Workload::GatewaydReplay => (codec_s + offer_s + poll_s) / serve_s,
        _ => (ingest_s + queue_s + aggregator_s + digest_s + evict_s) / sim_wall,
    };
    let beacons = sim_run.report.beacons_sent as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };

    out.metric("sim.self_s", sim_wall - pipeline_s, "s");
    out.metric(
        "sim.ns_per_beacon",
        (sim_wall - pipeline_s) * 1e9 / beacons,
        "ns",
    );
    out.metric("kernel.events", counts.events as f64, "count");
    out.metric(
        "kernel.queue_high_water",
        counts.queue_high_water as f64,
        "count",
    );
    out.metric(
        "kernel.wheel_ns_per_event",
        per(wheel_s, wheel_events),
        "ns",
    );
    out.metric("medium.tx", counts.tx as f64, "count");
    out.metric("medium.culled", counts.culled as f64, "count");
    out.metric("medium.delivered", counts.delivered as f64, "count");
    out.metric("medium.per_losses", counts.per_losses as f64, "count");
    out.metric(
        "medium.collision_losses",
        counts.collision_losses as f64,
        "count",
    );
    out.metric(
        "medium.cache_miss_ratio",
        ratio(counts.cache_misses, counts.cache_hits + counts.cache_misses),
        "ratio",
    );
    out.metric(
        "medium.retained_high_water",
        counts.retained_high_water as f64,
        "count",
    );
    out.metric("world.build_s", build_s, "s");
    out.metric("heap.bytes_per_device", bytes_per_device, "B");
    out.metric("ingest.frames", pipeline.frames as f64, "count");
    out.metric("ingest.duplicates", pipeline.duplicates as f64, "count");
    out.metric("ingest.self_s", ingest_s, "s");
    out.metric("ingest.ns_per_frame", per(ingest_s, pipeline.frames), "ns");
    out.metric("queue.self_s", queue_s, "s");
    out.metric("queue.drops", pipeline.queue_drops as f64, "count");
    out.metric(
        "queue.high_water",
        pipeline.queue_high_water as f64,
        "count",
    );
    out.metric("aggregator.reports", pipeline.reports as f64, "count");
    out.metric(
        "aggregator.delivered_ratio",
        ratio(pipeline.delivered, pipeline.reports),
        "ratio",
    );
    out.metric("aggregator.handoffs", pipeline.handoffs as f64, "count");
    out.metric("aggregator.self_s", aggregator_s, "s");
    out.metric(
        "aggregator.ns_per_report",
        per(aggregator_s, pipeline.reports),
        "ns",
    );
    out.metric("digest.self_s", digest_s, "s");
    out.metric("evict.self_s", evict_s, "s");
    out.metric("codec.records", daemon.records as f64, "count");
    out.metric("codec.self_s", codec_s, "s");
    out.metric("codec.ns_per_record", per(codec_s, daemon.records), "ns");
    out.metric("core.offer_self_s", offer_s, "s");
    out.metric("core.poll_self_s", poll_s, "s");
    out.metric("core.rejected", daemon.rejected as f64, "count");
    out.metric("daemon.shell_s", serve_s - codec_s - offer_s - poll_s, "s");
    out.metric("trace.coverage", coverage, "ratio");
    out.metric(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
        "%",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_gatewayd::capture::{capture_metro, replay_capture};

    /// The public-call pipeline split reproduces `replay_capture`'s
    /// digest and delivery count, and so does the daemon-stack split.
    #[test]
    fn pipeline_split_equals_replay_capture() {
        for seed in [42, 7] {
            let cfg = MetroConfig::smoke(seed);
            let (metro, raw, _) = capture_metro(&cfg, 1, Vec::new()).unwrap();
            let replayed = replay_capture(&raw, false, 1).unwrap();
            let stream = Watermarked::new(raw).unwrap();
            let mut spans = Spans::new(true);
            let p = pipeline_split(&stream, &mut spans).unwrap();
            assert_eq!(p.digest, replayed.delivery_digest);
            assert_eq!(p.digest, metro.delivery_digest);
            assert_eq!(p.delivered, replayed.stats.delivered);
            assert_eq!(p.handoffs, replayed.stats.handoffs);
            assert_eq!(p.reports, replayed.stats.total_hears());
            assert_eq!(p.polls as usize, stream.watermarks());
            assert!(spans.self_s("ingest") > 0.0);

            let d = daemon_split(&stream, &mut Spans::new(false)).unwrap();
            assert_eq!(d.digest, replayed.delivery_digest);
            assert_eq!(d.frames_in, stream.frames);
            assert!(d.ledger_closes);
            assert_eq!(d.rejected, 0);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.enter("outer");
        spans.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        spans.exit();
        assert!(spans.total_s("outer") >= spans.self_s("inner"));
        assert!(spans.self_s("outer") < spans.self_s("inner"));
        assert_eq!(spans.self_s("missing"), 0.0);
    }

    #[test]
    fn wheel_train_pops_every_wake() {
        let cfg = MetroConfig::smoke(42);
        let (events, _) = wheel_train(&cfg);
        assert_eq!(events, sim::beacons_due(&cfg));
    }
}
