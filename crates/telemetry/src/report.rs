//! `TelemetryReport`: the sorted, stable end-of-run rendering.
//!
//! The report body is a pure function of the deterministic snapshot
//! (registry + trace length), so its digest is the identity witness the
//! differential tests compare across `WILE_WORKERS` settings. Wall-clock
//! profiling is appended only by [`TelemetryReport::render_with_prof`],
//! under an explicit `# nondeterministic` banner, and never digested.

use crate::collector::Telemetry;
use crate::json::Json;
use crate::prof;
use crate::registry::{fnv1a, Registry};

/// Schema identifier for the JSON report form.
pub(crate) const REPORT_SCHEMA: &str = "wile.telemetry-report";
/// Schema version for the JSON report form.
pub(crate) const REPORT_VERSION: u32 = 1;

/// A rendered, immutable snapshot of a run's deterministic telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    text: String,
    json: String,
    digest: u64,
}

impl TelemetryReport {
    /// Snapshot a collector (registry plus trace event count).
    pub(crate) fn from_telemetry(t: &Telemetry) -> Self {
        Self::build(t.registry(), t.trace().len() as u64)
    }

    /// Snapshot a bare registry (no trace).
    pub fn from_registry(reg: &Registry) -> Self {
        Self::build(reg, 0)
    }

    fn build(reg: &Registry, trace_events: u64) -> Self {
        let mut text = format!(
            "# wile telemetry report (instruments={} trace_events={trace_events})\n",
            reg.len()
        );
        text.push_str(&reg.render());
        let digest = fnv1a(text.as_bytes());
        let json = Json::obj()
            .field("schema", Json::str(REPORT_SCHEMA))
            .field("version", Json::int(REPORT_VERSION as u64))
            .field("trace_events", Json::int(trace_events))
            .field("digest", Json::str(format!("{digest:#018x}")))
            .field("instruments", reg.to_json())
            .render();
        TelemetryReport { text, json, digest }
    }

    /// The deterministic text body (header line + one line per
    /// instrument, sorted by key).
    pub fn render(&self) -> &str {
        &self.text
    }

    /// The deterministic JSON form (shares the workspace JSON helper
    /// with `wile-instrument::export`).
    pub fn to_json(&self) -> &str {
        &self.json
    }

    /// FNV-1a digest of the text body.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Text body plus the wall-clock profile under a banner that marks
    /// it nondeterministic. The profile is process-global, env-gated
    /// (`WILE_PROF=1`), and excluded from [`TelemetryReport::digest`].
    pub fn render_with_prof(&self) -> String {
        let mut out = self.text.clone();
        let profile = prof::prof_report();
        if !profile.is_empty() {
            out.push_str("# nondeterministic (wall clock, WILE_PROF=1)\n");
            out.push_str(&profile);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn digest_tracks_text() {
        let mut reg = Registry::new();
        reg.inc("a", &[], 1);
        let r1 = TelemetryReport::from_registry(&reg);
        assert_eq!(r1.digest(), fnv1a(r1.render().as_bytes()));
        reg.inc("a", &[], 1);
        let r2 = TelemetryReport::from_registry(&reg);
        assert_ne!(r1.digest(), r2.digest());
    }

    #[test]
    fn json_parses_and_carries_schema() {
        let mut reg = Registry::new();
        reg.observe("h", &[("lane", 3u64.into())], 42);
        let report = TelemetryReport::from_registry(&reg);
        let doc = json::parse(report.to_json()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        assert_eq!(doc.get("version").unwrap().as_f64(), Some(1.0));
        let instruments = doc.get("instruments").unwrap().as_arr().unwrap();
        assert_eq!(instruments.len(), 1);
        assert_eq!(
            instruments[0].get("type").unwrap().as_str(),
            Some("histogram")
        );
    }

    #[test]
    fn identical_registries_identical_reports() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        for reg in [&mut a, &mut b] {
            reg.inc("x", &[], 7);
            reg.observe("y", &[], 1000);
        }
        let ra = TelemetryReport::from_registry(&a);
        let rb = TelemetryReport::from_registry(&b);
        assert_eq!(ra, rb);
        assert_eq!(ra.digest(), rb.digest());
    }
}
