//! The IO shell around [`GatewaydCore`]: transports, the JSONL run
//! trace, and graceful shutdown.
//!
//! The daemon is deliberately thin. It reads bytes from a transport
//! (TCP, Unix socket, or a framed pipe/file), runs them through the
//! [`FrameDecoder`] → [`WireRecord`] stack, and forwards frames and
//! watermarks into the core. All determinism lives below this layer:
//! the core never sees the transport, and the transport never makes a
//! decision that depends on wall-clock time — a capture replayed over
//! loopback TCP in ten seconds and the same capture read from a file
//! in ten milliseconds produce identical reports.
//!
//! Shutdown discipline: on a `Shutdown` record, end of input, or a
//! stop signal ([`crate::signal`]), the daemon *drains* — every
//! remaining poll through the horizon executes, the final report is
//! computed (with its frame ledger asserted closed: nothing is
//! silently lost), the trace gets its report line, and the process
//! exits 0.

use crate::codec::FrameDecoder;
use crate::core::{GatewaydConfig, GatewaydCore, GatewaydReport, PollRecord};
use crate::signal;
use crate::wire::{WcapHeader, WireRecord};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;
use wile_telemetry::{Instrument, Json, Registry};

/// How long one blocking read on a connection may wait, so a stop
/// signal is noticed promptly.
const READ_SLICE: StdDuration = StdDuration::from_millis(50);

/// How the daemon builds and runs its core.
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Aggregation worker threads (0 → 1; results identical at any
    /// setting).
    pub workers: usize,
    /// Retain the full delivery stream in the final report.
    pub keep_deliveries: bool,
    /// Pre-set pipeline configuration. With `None` the first stream
    /// header establishes the session; with `Some` the core exists
    /// from startup and incoming headers are verified against it.
    pub config: Option<GatewaydConfig>,
}

/// Counters and live core shared between the serve loop and the
/// scrape endpoint.
pub struct DaemonState {
    /// The live core (`None` before the first header or after the
    /// final report).
    pub core: Option<GatewaydCore>,
    /// The final report, once drained.
    pub report: Option<GatewaydReport>,
    /// Connections accepted.
    pub connections: u64,
    /// Frames refused by the core with a typed error (connection
    /// continues; the frame is ledgered as rejected).
    pub frame_errors: u64,
    /// Connections aborted on framing/record errors (past a bad length
    /// prefix there is no resynchronizing).
    pub stream_errors: u64,
}

impl DaemonState {
    fn new() -> Self {
        DaemonState {
            core: None,
            report: None,
            connections: 0,
            frame_errors: 0,
            stream_errors: 0,
        }
    }

    /// Every instrument the daemon serves: the live core's counters
    /// while running, the final report's after the drain (the same
    /// key set), plus the daemon's own front-door counters. Both scrape
    /// routes read this one registry.
    fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        if let Some(core) = &self.core {
            core.record_telemetry(&mut reg);
        } else if let Some(report) = &self.report {
            report.record_telemetry(&mut reg);
        }
        reg.counter_set("gatewayd.connections", &[], self.connections);
        reg.counter_set("gatewayd.frame_errors", &[], self.frame_errors);
        reg.counter_set("gatewayd.stream_errors", &[], self.stream_errors);
        reg
    }

    /// Render the telemetry registry as a text scrape (`/metrics`).
    pub fn render_metrics(&self) -> String {
        self.registry().render()
    }

    /// A compact JSON status document for the `/report` endpoint: the
    /// phase, the registry's `gatewayd.*` instruments under their names
    /// without the prefix, and the delivery digest once finished.
    pub fn status_json(&self) -> String {
        let phase = if self.report.is_some() {
            "finished"
        } else if self.core.is_some() {
            "running"
        } else {
            "idle"
        };
        let mut obj = Json::obj().field("phase", Json::str(phase));
        for (key, inst) in self.registry().iter() {
            let Some(name) = key.name().strip_prefix("gatewayd.") else {
                continue;
            };
            let value = match inst {
                Instrument::Counter(c) => Json::int(c.get()),
                Instrument::Gauge(g) => Json::sint(g.last()),
                Instrument::Histogram(_) => continue,
            };
            obj = obj.field(name, value);
        }
        if let Some(r) = &self.report {
            obj = obj.field("digest", Json::str(format!("{:#018x}", r.delivery_digest)));
        }
        obj.render()
    }
}

/// What a connection's record stream did.
enum ConnStatus {
    /// More bytes expected.
    Open,
    /// Clean `Shutdown` record: drain and exit.
    Shutdown,
    /// Unrecoverable framing/record error: drop the connection, keep
    /// serving.
    Abort,
}

/// The ingestion daemon. One instance serves one run: transports feed
/// it records until a `Shutdown` record, end of input, or a stop
/// signal, and it drains into a final [`GatewaydReport`].
pub struct Daemon {
    opts: DaemonOptions,
    state: Arc<Mutex<DaemonState>>,
    trace: Option<Box<dyn Write + Send>>,
    shutdown_seen: bool,
}

impl Daemon {
    /// Build a daemon. When `trace` is given, the JSONL run trace
    /// streams into it (schema line immediately, one line per poll,
    /// one report line at drain) and per-poll logging is enabled on
    /// the core.
    pub fn new(opts: DaemonOptions, trace: Option<Box<dyn Write + Send>>) -> io::Result<Self> {
        let mut daemon = Daemon {
            opts,
            state: Arc::new(Mutex::new(DaemonState::new())),
            trace,
            shutdown_seen: false,
        };
        if let Some(w) = daemon.trace.as_mut() {
            let line = Json::obj()
                .field("type", Json::str("schema"))
                .field("format", Json::str("wile-gatewayd-trace"))
                .field("version", Json::int(1))
                .render();
            writeln!(w, "{line}")?;
        }
        if let Some(cfg) = daemon.opts.config.clone() {
            let cfg = daemon.apply_opts(cfg);
            daemon.state.lock().unwrap().core = Some(GatewaydCore::new(cfg));
        }
        Ok(daemon)
    }

    /// The shared state handle, for the scrape endpoint.
    pub fn state(&self) -> Arc<Mutex<DaemonState>> {
        Arc::clone(&self.state)
    }

    fn apply_opts(&self, mut cfg: GatewaydConfig) -> GatewaydConfig {
        cfg.workers = self.opts.workers.max(1);
        cfg.keep_deliveries = self.opts.keep_deliveries;
        cfg.log_polls = self.trace.is_some();
        cfg
    }

    fn header_compatible(cfg: &GatewaydConfig, h: &WcapHeader) -> bool {
        cfg.gateways == h.gateways as usize
            && cfg.queue_capacity == h.queue_capacity
            && cfg.poll_every == h.poll_every
            && cfg.stale_after == h.stale_after
            && cfg.horizon == h.horizon
    }

    fn trace_polls(&mut self, polls: &[PollRecord]) -> io::Result<()> {
        let Some(w) = self.trace.as_mut() else {
            return Ok(());
        };
        for p in polls {
            let line = Json::obj()
                .field("type", Json::str("poll"))
                .field("at_ns", Json::int(p.at.as_nanos()))
                .field("delivered", Json::int(p.delivered))
                .field("evicted", Json::int(p.evicted))
                .render();
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    fn trace_report(&mut self, r: &GatewaydReport) -> io::Result<()> {
        let Some(w) = self.trace.as_mut() else {
            return Ok(());
        };
        let line = Json::obj()
            .field("type", Json::str("report"))
            .field("frames_in", Json::int(r.frames_in))
            .field("rejected", Json::int(r.rejected))
            .field("late", Json::int(r.late))
            .field("polls", Json::int(r.polls))
            .field("delivered", Json::int(r.stats.delivered))
            .field("handoffs", Json::int(r.stats.handoffs))
            .field("evicted", Json::int(r.evicted.len() as u64))
            .field("digest", Json::str(format!("{:#018x}", r.delivery_digest)))
            .field("sim_end_ns", Json::int(r.sim_end.as_nanos()))
            .render();
        writeln!(w, "{line}")?;
        w.flush()
    }

    /// Drain every remaining poll through the horizon, compute the
    /// final report, trace it, and publish it to the shared state.
    fn finalize(&mut self) -> io::Result<GatewaydReport> {
        let core = {
            let mut st = self.state.lock().unwrap();
            st.core.take().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "no session established (no stream header and no preset config)",
                )
            })?
        };
        let mut out = Vec::new();
        let report = core.finish(&mut out);
        self.trace_polls(&report.poll_log)?;
        self.trace_report(&report)?;
        self.state.lock().unwrap().report = Some(report.clone());
        Ok(report)
    }

    /// Decode and apply every complete record the decoder holds, under
    /// one lock of the shared state (a poll holds it for its whole run
    /// anyway), then trace the polls they ran.
    fn apply_records(&mut self, dec: &mut FrameDecoder) -> io::Result<ConnStatus> {
        let state = Arc::clone(&self.state);
        let mut st = state.lock().unwrap();
        let status = self.apply_locked(&mut st, dec);
        let polls = match st.core.as_mut() {
            Some(core) if self.trace.is_some() => core.take_poll_log(),
            _ => Vec::new(),
        };
        drop(st);
        self.trace_polls(&polls)?;
        Ok(status)
    }

    /// The body of [`apply_records`](Daemon::apply_records), with the
    /// state locked.
    fn apply_locked(&mut self, st: &mut DaemonState, dec: &mut FrameDecoder) -> ConnStatus {
        // Deliveries are counted and digested inside the core; this
        // buffer only receives them, and is cleared after each record
        // so a delivery (and the frame its payload reads) is not kept.
        let mut out = Vec::new();
        loop {
            // A bad length prefix or record body: past it there is no
            // resynchronizing.
            let record = match dec.next_record() {
                Ok(None) => return ConnStatus::Open,
                Ok(Some(body)) => WireRecord::decode(body).ok(),
                Err(_) => None,
            };
            let Some(record) = record else {
                st.stream_errors += 1;
                return ConnStatus::Abort;
            };
            match record {
                WireRecord::Header(h) => match &st.core {
                    Some(core) if Self::header_compatible(core.config(), &h) => {}
                    Some(_) => {
                        st.stream_errors += 1;
                        return ConnStatus::Abort;
                    }
                    None => {
                        let cfg = self.apply_opts(GatewaydConfig::from_header(&h));
                        st.core = Some(GatewaydCore::new(cfg));
                    }
                },
                WireRecord::Frame(f) => match st.core.as_mut() {
                    Some(core) => {
                        if core.offer(f.lane, f.frame, &mut out).is_err() {
                            st.frame_errors += 1;
                        }
                    }
                    None => {
                        st.stream_errors += 1;
                        return ConnStatus::Abort;
                    }
                },
                WireRecord::Advance { to } => {
                    if let Some(core) = st.core.as_mut() {
                        core.advance_to(to, &mut out);
                    }
                }
                WireRecord::Shutdown => {
                    self.shutdown_seen = true;
                    return ConnStatus::Shutdown;
                }
            }
            out.clear();
        }
    }

    /// Pump one connection's bytes into the record stack until the
    /// peer closes, a shutdown/abort, or a stop signal.
    fn pump(&mut self, mut r: impl Read) -> io::Result<()> {
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 64 * 1024];
        loop {
            if signal::stop_requested() {
                return Ok(());
            }
            match r.read(&mut buf) {
                Ok(0) => return Ok(()),
                Ok(n) => {
                    dec.push(&buf[..n]);
                    match self.apply_records(&mut dec)? {
                        ConnStatus::Open => {}
                        ConnStatus::Shutdown | ConnStatus::Abort => return Ok(()),
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                // A torn connection is the peer's problem; the daemon
                // keeps its session (frames already offered are in).
                Err(_) => return Ok(()),
            }
        }
    }

    /// Serve a TCP listener: one connection at a time, 50 ms read
    /// slices so stop signals are honored promptly. Returns the final
    /// report after a `Shutdown` record or a stop signal.
    pub fn serve_tcp(&mut self, listener: TcpListener) -> io::Result<GatewaydReport> {
        listener.set_nonblocking(true)?;
        self.serve_accepted(|| {
            let (stream, _) = listener.accept()?;
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(READ_SLICE))?;
            Ok(stream)
        })
    }

    /// Serve a Unix socket listener (same loop as TCP).
    #[cfg(unix)]
    pub fn serve_unix(&mut self, listener: UnixListener) -> io::Result<GatewaydReport> {
        listener.set_nonblocking(true)?;
        self.serve_accepted(|| {
            let (stream, _) = listener.accept()?;
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(READ_SLICE))?;
            Ok(stream)
        })
    }

    /// The accept loop behind both listeners: `accept` polls a
    /// nonblocking listener (`WouldBlock` while nobody is connecting)
    /// and returns a blocking stream with [`READ_SLICE`] read timeouts;
    /// each connection is pumped to its end before the next is taken.
    fn serve_accepted<S: Read>(
        &mut self,
        mut accept: impl FnMut() -> io::Result<S>,
    ) -> io::Result<GatewaydReport> {
        while !(signal::stop_requested() || self.shutdown_seen) {
            match accept() {
                Ok(stream) => {
                    self.state.lock().unwrap().connections += 1;
                    self.pump(stream)?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(StdDuration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        self.finalize()
    }

    /// Serve a framed byte stream directly (stdin pipe mode): records
    /// in, drain at end of input (or `Shutdown` record), report out.
    pub fn serve_reader(&mut self, r: impl Read) -> io::Result<GatewaydReport> {
        self.state.lock().unwrap().connections += 1;
        self.pump(r)?;
        self.finalize()
    }

    /// Replay a `.wcap` file (or any recorded record stream) and
    /// produce the report — the offline end of the determinism
    /// contract.
    pub fn serve_path(&mut self, path: &Path) -> io::Result<GatewaydReport> {
        self.serve_reader(io::BufReader::new(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_the_same_report_as_a_reader() {
        use crate::capture::capture_metro;
        use std::os::unix::net::UnixStream;
        use wile_scenarios::metro::MetroConfig;

        signal::reset_stop();
        let (_, mut wire, _) = capture_metro(&MetroConfig::smoke(7), 1, Vec::new()).unwrap();
        WireRecord::Shutdown.encode(&mut wire);
        let opts = DaemonOptions {
            workers: 1,
            keep_deliveries: true,
            config: None,
        };
        let from_reader = Daemon::new(opts.clone(), None)
            .unwrap()
            .serve_reader(&wire[..])
            .unwrap();

        let path = std::env::temp_dir().join(format!("wile_daemon_{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let mut daemon = Daemon::new(opts, None).unwrap();
        let server = std::thread::spawn(move || daemon.serve_unix(listener).unwrap());
        UnixStream::connect(&path)
            .unwrap()
            .write_all(&wire)
            .unwrap();
        let from_socket = server.join().unwrap();
        std::fs::remove_file(&path).unwrap();

        assert!(from_reader.frames_ledger_closes());
        assert_eq!(from_socket, from_reader);
    }
}
