//! Wall-clock profiling, explicitly **nondeterministic**.
//!
//! Everything here measures real elapsed time and thread scheduling, so
//! none of it may leak into the deterministic snapshot: the report
//! renderer prints this section under a `# nondeterministic` banner and
//! excludes it from digests. Collection is off unless the process runs
//! with `WILE_PROF=1`, so the hot paths pay one cached boolean load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant as WallInstant;

static PROF_STATE: AtomicU8 = AtomicU8::new(0); // 0 unknown, 1 off, 2 on

#[derive(Default)]
struct ProfCell {
    calls: u64,
    total_ns: u64,
    max_ns: u64,
}

static PROF: Mutex<BTreeMap<&'static str, ProfCell>> = Mutex::new(BTreeMap::new());

/// Whether wall-clock profiling is active (`WILE_PROF=1`). The env var
/// is read once and cached for the life of the process.
pub fn prof_enabled() -> bool {
    match PROF_STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = std::env::var("WILE_PROF")
                .map(|v| v == "1")
                .unwrap_or(false);
            PROF_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Record one timed call under `name` (no-op when profiling is off).
pub fn prof_record(name: &'static str, elapsed_ns: u64) {
    if !prof_enabled() {
        return;
    }
    let mut map = PROF.lock().unwrap();
    let cell = map.entry(name).or_default();
    cell.calls += 1;
    cell.total_ns += elapsed_ns;
    if elapsed_ns > cell.max_ns {
        cell.max_ns = elapsed_ns;
    }
}

/// Record a pre-counted quantity (e.g. cells processed by one worker)
/// without timing semantics; stored as calls=n with zero duration.
pub fn prof_count(name: &'static str, n: u64) {
    if !prof_enabled() {
        return;
    }
    let mut map = PROF.lock().unwrap();
    map.entry(name).or_default().calls += n;
}

/// An RAII wall-clock timer: times from construction to drop and feeds
/// [`prof_record`]. Construction is ~free when profiling is off.
pub struct ProfScope {
    name: &'static str,
    started: Option<WallInstant>,
}

impl ProfScope {
    /// Start timing `name` (inert unless `WILE_PROF=1`).
    pub fn new(name: &'static str) -> Self {
        ProfScope {
            name,
            started: prof_enabled().then(WallInstant::now),
        }
    }
}

impl Drop for ProfScope {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            prof_record(self.name, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Render the accumulated profile, one sorted line per site. Empty
/// string when nothing was recorded.
pub fn prof_report() -> String {
    let map = PROF.lock().unwrap();
    let mut out = String::new();
    for (name, cell) in map.iter() {
        out.push_str(&format!(
            "prof    {name} calls={} total_ms={:.3} max_ms={:.3}\n",
            cell.calls,
            cell.total_ns as f64 / 1e6,
            cell.max_ns as f64 / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_env() {
        // The test harness never sets WILE_PROF, so scopes are no-ops
        // and the report stays empty (prof_record checks the flag too).
        let _scope = ProfScope::new("test.noop");
        drop(_scope);
        if !prof_enabled() {
            prof_record("test.noop", 123);
            assert_eq!(prof_report(), "");
        }
    }
}
