//! The telemetry scrape endpoint: a hand-rolled, dependency-free
//! HTTP/1.0 responder on its own thread.
//!
//! Three routes, all read-only over the shared [`DaemonState`]:
//!
//! * `GET /metrics`  — the telemetry registry rendered as the standard
//!   text scrape (`counter`/`gauge`/`hist` lines), live while the run
//!   is in flight and final after the drain, with the same key set in
//!   both phases;
//! * `GET /healthz`  — liveness probe, `ok`;
//! * `GET /report`   — compact JSON status: the phase, every
//!   `gatewayd.*` instrument of that same registry under its name
//!   without the prefix (`frames_in`, `rejected`, `staged`, `late`,
//!   `polls`, `connections`, …), and the delivery digest once finished.
//!
//! Observation only: the endpoint never mutates the core, so scraping
//! mid-run cannot perturb the deterministic pipeline.

use crate::daemon::DaemonState;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as WallInstant};

/// How long a peer has to send its whole request head, and the bound
/// on each write of the response. The endpoint serves one connection
/// at a time, so a slow or half-open peer must not hold it longer.
const PEER_DEADLINE: StdDuration = StdDuration::from_millis(500);

/// A running scrape server; drop-in handle for shutdown.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// serve scrapes of `state` on a background thread.
    pub fn start(addr: &str, state: Arc<Mutex<DaemonState>>) -> io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gatewayd-scrape".into())
            .spawn(move || serve(listener, state, stop2))?;
        Ok(ScrapeServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the serving thread and join it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve(listener: TcpListener, state: Arc<Mutex<DaemonState>>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Best-effort: a failed scrape never takes the daemon
                // down.
                let _ = respond(stream, &state);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(StdDuration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

fn respond(mut stream: TcpStream, state: &Arc<Mutex<DaemonState>>) -> io::Result<()> {
    stream.set_write_timeout(Some(PEER_DEADLINE))?;
    let path = read_request_path(&mut stream, WallInstant::now() + PEER_DEADLINE)?;
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            state.lock().unwrap().render_metrics(),
        ),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "/report" => (
            "200 OK",
            "application/json",
            state.lock().unwrap().status_json(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Read up to the end of the request head, or whatever of it arrives
/// before `deadline`, and return the path of the request line
/// (`GET <path> HTTP/1.x`). Each read waits only for the time left, so
/// a peer trickling bytes cannot stretch the head past `deadline`.
fn read_request_path(stream: &mut TcpStream, deadline: WallInstant) -> io::Result<String> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(WallInstant::now());
        if left.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(b"");
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let _method = parts.next().unwrap_or("");
    Ok(parts.next().unwrap_or("/").to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonOptions};

    fn healthz(addr: SocketAddr) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect scrape");
        conn.set_read_timeout(Some(StdDuration::from_secs(10)))
            .expect("client timeout");
        conn.write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    }

    /// A peer that sends one byte of a never-ending request head every
    /// 100 ms for 3 s, then hangs up.
    fn trickle(addr: SocketAddr) -> JoinHandle<()> {
        let mut conn = TcpStream::connect(addr).expect("connect slow peer");
        std::thread::spawn(move || {
            let head = b"GET /metrics HTTP/1.0\r\nX-Slow: ".iter();
            for &b in head.chain(std::iter::repeat(&b'a')).take(30) {
                if conn.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(StdDuration::from_millis(100));
            }
        })
    }

    #[test]
    fn slow_peer_blocks_neither_scrapes_nor_shutdown() {
        let opts = DaemonOptions {
            workers: 1,
            keep_deliveries: false,
            config: None,
        };
        let daemon = Daemon::new(opts, None).expect("daemon");
        let server = ScrapeServer::start("127.0.0.1:0", daemon.state()).expect("scrape server");
        let addr = server.addr();

        // The slow peer connected first, and the accept backlog is FIFO,
        // so it holds the scrape thread when the probe arrives.
        let slow = trickle(addr);
        let asked = WallInstant::now();
        let response = healthz(addr);
        assert!(response.ends_with("\r\n\r\nok\n"), "{response:?}");
        let waited = asked.elapsed();
        assert!(
            waited < StdDuration::from_secs(2),
            "healthz took {waited:?}"
        );

        // Let the accept loop (a 10 ms poll) take the next slow peer
        // before stopping it; a server that bounds the peer passes
        // whether or not it has.
        let slow_again = trickle(addr);
        std::thread::sleep(StdDuration::from_millis(200));
        let asked = WallInstant::now();
        server.shutdown();
        let waited = asked.elapsed();
        assert!(
            waited < StdDuration::from_secs(2),
            "shutdown took {waited:?}"
        );
        slow.join().expect("slow peer");
        slow_again.join().expect("second slow peer");
    }
}
