//! The `gatewayd-replay` workload: the `metro-dense` frame stream,
//! recorded in set-up, served from memory through
//! `Daemon::serve_reader` by one in-process client (a closed loop, no
//! socket).

use crate::speed::Clock;
use crate::stream::Watermarked;
use crate::{sim, stats, Outcome, Workload, HEAP, MIB};
use std::io::{self, Write};
use wile_gatewayd::capture::capture_metro;
use wile_gatewayd::{Daemon, DaemonOptions, GatewaydReport};
use wile_scenarios::metro::{MetroConfig, MetroReport};

/// Capture bytes written between two laps of the recording's clock.
const LAP_BYTES: usize = 1 << 20;

/// The capture sink: the recorded bytes in memory, with a lap of the
/// clock after each [`LAP_BYTES`] of them.
struct LappedSink {
    bytes: Vec<u8>,
    clock: Clock,
    next: usize,
}

impl Write for LappedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        if self.bytes.len() >= self.next {
            self.clock.lap();
            self.next += LAP_BYTES;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Record the world's frame stream with the public capture hook and
/// index its poll watermarks. Also returns the clock that timed both,
/// lapped after every MiB recorded (see [`crate::speed`]).
pub fn record(cfg: &MetroConfig) -> (MetroReport, Watermarked, Clock) {
    let sink = LappedSink {
        bytes: Vec::new(),
        clock: Clock::start(),
        next: LAP_BYTES,
    };
    let (metro, sink, _) = capture_metro(cfg, 1, sink).expect("an in-memory sink cannot fail");
    let LappedSink {
        bytes, mut clock, ..
    } = sink;
    let stream = Watermarked::new(bytes).expect("a fresh capture parses");
    clock.lap();
    (metro, stream, clock)
}

/// One timed serve of the stream.
pub struct Serve {
    /// The daemon's final report.
    pub report: GatewaydReport,
    /// Frames the daemon refused on the wire (record errors count too).
    pub errors: u64,
    /// Wall time of `serve_reader` less the reference units the reader
    /// ran, host seconds.
    pub wall_s: f64,
    /// The same time at the reference's nominal speed (see
    /// [`crate::speed`]).
    pub nominal_s: f64,
    /// Per-poll latency samples at the nominal speed, ms.
    pub poll_ms: Vec<f64>,
    /// Peak live heap above the heap live at the call, bytes.
    pub peak_heap: usize,
}

/// Serve the stream through a fresh one-worker daemon.
pub fn serve(stream: &Watermarked) -> Serve {
    let mut daemon = Daemon::new(
        DaemonOptions {
            workers: 1,
            ..Default::default()
        },
        None,
    )
    .expect("a daemon without a trace sink writes nothing");
    let mut reader = stream.reader();
    let base = HEAP.reset_peak();
    let report = daemon
        .serve_reader(&mut reader)
        .expect("an in-memory stream cannot fail to read");
    reader.clock.lap();
    let peak_heap = HEAP.peak() - base;
    let state = daemon.state();
    let st = state.lock().expect("the daemon has returned");
    Serve {
        errors: st.frame_errors + st.stream_errors,
        report,
        wall_s: reader.clock.host_s(),
        nominal_s: reader.clock.nominal_s(),
        poll_ms: reader.poll_ms,
        peak_heap,
    }
}

/// Check one serve against the recording run: same digest, every frame
/// offered and accounted, none refused or late, one poll per watermark.
/// Returns the frames that failed (all of them when the run diverged).
pub fn check_serve(out: &mut Outcome, s: &Serve, stream: &Watermarked, metro: &MetroReport) -> u64 {
    let r = &s.report;
    let diverged = ![
        out.check(r.delivery_digest == metro.delivery_digest, || {
            format!(
                "replay digest {:#018x}, recording run {:#018x}",
                r.delivery_digest, metro.delivery_digest
            )
        }),
        out.check(r.frames_ledger_closes(), || "frame ledger open".into()),
        out.check(r.polls as usize == stream.watermarks(), || {
            format!("{} polls for {} watermarks", r.polls, stream.watermarks())
        }),
        out.check(s.poll_ms.len() == stream.watermarks(), || {
            format!(
                "{} poll samples for {} watermarks",
                s.poll_ms.len(),
                stream.watermarks()
            )
        }),
    ]
    .iter()
    .all(|&ok| ok);
    let bad = r.rejected + r.late + s.errors;
    out.check(bad == 0 && r.frames_in == stream.frames, || {
        format!(
            "{} of {} frames in, {} rejected, {} late, {} wire errors",
            r.frames_in, stream.frames, r.rejected, r.late, s.errors
        )
    });
    let missing = stream.frames.saturating_sub(r.frames_in);
    if diverged {
        stream.frames
    } else {
        (bad + missing).min(stream.frames)
    }
}

/// The end-to-end run: record in set-up, then serve enough times to
/// fill `seconds`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let w = Workload::GatewaydReplay;
    let mut out = Outcome::default();
    let cfg = w.config(seed);
    // One set-up: it is a whole metro-dense run plus its recording
    // (about 15 s), lapped about 500 times; a second would cost a third
    // of the run.
    let (metro, stream, clock) = record(&cfg);
    let (host_s, setup_s) = (clock.host_s(), clock.nominal_s());
    println!(
        "set-up: {host_s:.3} s ({setup_s:.3} s at the reference speed), {} frames, {} watermarks, recording digest {:#018x}",
        stream.frames,
        stream.watermarks(),
        metro.delivery_digest
    );
    // The recording run is the metro-dense world: its own checks apply
    // before any frame is served.
    let recording_ok = sim::check_report(&mut out, &cfg, &metro, w.expected_digest(seed), None);

    let mut serves: Vec<Serve> = Vec::new();
    while serves.len() < w.repeats(seconds) {
        let s = serve(&stream);
        out.attempted += stream.frames;
        out.failed += if recording_ok {
            check_serve(&mut out, &s, &stream, &metro)
        } else {
            stream.frames
        };
        println!(
            "serve {}: {:.3} s ({:.3} s at the reference speed), {} frames in, {} polls, digest {:#018x}, peak heap {:.1} MiB",
            serves.len() + 1,
            s.wall_s,
            s.nominal_s,
            s.report.frames_in,
            s.report.polls,
            s.report.delivery_digest,
            s.peak_heap as f64 / MIB
        );
        serves.push(s);
    }
    let repeats: Vec<Vec<f64>> = serves.iter().map(|s| s.poll_ms.clone()).collect();
    let poll_ms = stats::poll_samples(&repeats);
    println!(
        "poll samples: {} (best of {} serves)",
        poll_ms.len(),
        serves.len()
    );

    let per_serve =
        |f: &dyn Fn(&Serve) -> f64| stats::median(&serves.iter().map(f).collect::<Vec<_>>());
    let frames_per_s = per_serve(&|s| s.report.frames_in as f64 / s.nominal_s);
    let beacons_per_s = per_serve(&|s| metro.beacons_sent as f64 / s.nominal_s);
    let peak_heap_mib = per_serve(&|s| s.peak_heap as f64 / MIB);
    out.metric("beacons_per_s", beacons_per_s, "1/s");
    out.metric("frames_per_s", frames_per_s, "1/s");
    out.percentile_metric("poll_p50_ms", &poll_ms, 50.0);
    out.percentile_metric("poll_p90_ms", &poll_ms, 90.0);
    out.metric("peak_heap_mib", peak_heap_mib, "MiB");
    out.metric("setup_s", setup_s, "s");
    out
}
