//! The instrument registry: `(name, labels) → instrument`, with
//! deterministic rendering, merging, and digesting.

use std::collections::BTreeMap;
use std::fmt;

use crate::instrument::{Counter, Gauge, Histogram};
use crate::json::Json;

/// A label value: static string or integer (lane indexes, shard ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LabelValue {
    /// A static string label (e.g. `kind=beacon`).
    Str(&'static str),
    /// A numeric label (e.g. `lane=3`).
    U64(u64),
}

impl fmt::Display for LabelValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelValue::Str(s) => f.write_str(s),
            LabelValue::U64(v) => write!(f, "{v}"),
        }
    }
}

impl From<&'static str> for LabelValue {
    fn from(s: &'static str) -> Self {
        LabelValue::Str(s)
    }
}

impl From<u64> for LabelValue {
    fn from(v: u64) -> Self {
        LabelValue::U64(v)
    }
}

impl From<u32> for LabelValue {
    fn from(v: u32) -> Self {
        LabelValue::U64(v as u64)
    }
}

impl From<usize> for LabelValue {
    fn from(v: usize) -> Self {
        LabelValue::U64(v as u64)
    }
}

/// One `key=value` label pair.
pub type Label = (&'static str, LabelValue);

/// An instrument identity: static name plus a small, sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    name: &'static str,
    labels: Vec<Label>,
}

impl Key {
    /// Build a key; labels are sorted by label name so `[("a",..),("b",..)]`
    /// and `[("b",..),("a",..)]` identify the same instrument.
    pub(crate) fn new(name: &'static str, labels: &[Label]) -> Self {
        let mut labels = labels.to_vec();
        labels.sort();
        Key { name, labels }
    }

    /// The instrument name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The sorted label set.
    pub(crate) fn labels(&self) -> &[Label] {
        &self.labels
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}={v}")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// A typed instrument slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Instrument {
    /// Monotonic count.
    Counter(Counter),
    /// Level + high-water mark.
    Gauge(Gauge),
    /// Log-bucketed distribution.
    Histogram(Histogram),
}

/// A deterministic map from [`Key`] to [`Instrument`].
///
/// Backed by a `BTreeMap` so iteration (and hence rendering, JSON, and
/// the digest) is in sorted key order regardless of insertion order.
/// Two registries fed the same observations in any interleaving render
/// byte-identically; see [`Registry::merge_from`] for the shard-merge
/// contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    map: BTreeMap<Key, Instrument>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no instrument has been touched.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Add `n` to a counter, creating it at zero first if needed.
    pub fn inc(&mut self, name: &'static str, labels: &[Label], n: u64) {
        match self
            .map
            .entry(Key::new(name, labels))
            .or_insert(Instrument::Counter(Counter::new()))
        {
            Instrument::Counter(c) => c.inc(n),
            other => panic!("instrument '{name}' is not a counter: {other:?}"),
        }
    }

    /// Overwrite a counter with an absolute value (end-of-run flush).
    pub fn counter_set(&mut self, name: &'static str, labels: &[Label], v: u64) {
        match self
            .map
            .entry(Key::new(name, labels))
            .or_insert(Instrument::Counter(Counter::new()))
        {
            Instrument::Counter(c) => c.set(v),
            other => panic!("instrument '{name}' is not a counter: {other:?}"),
        }
    }

    /// Record a gauge level (tracks the high-water mark).
    pub fn gauge_set(&mut self, name: &'static str, labels: &[Label], v: i64) {
        match self
            .map
            .entry(Key::new(name, labels))
            .or_insert(Instrument::Gauge(Gauge::new()))
        {
            Instrument::Gauge(g) => g.set(v),
            other => panic!("instrument '{name}' is not a gauge: {other:?}"),
        }
    }

    /// Record a histogram observation.
    pub fn observe(&mut self, name: &'static str, labels: &[Label], v: u64) {
        match self
            .map
            .entry(Key::new(name, labels))
            .or_insert(Instrument::Histogram(Histogram::new()))
        {
            Instrument::Histogram(h) => h.observe(v),
            other => panic!("instrument '{name}' is not a histogram: {other:?}"),
        }
    }

    /// Read a counter back (tests and report plumbing).
    pub fn counter(&self, name: &'static str, labels: &[Label]) -> Option<u64> {
        match self.map.get(&Key::new(name, labels))? {
            Instrument::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Read a gauge back.
    pub fn gauge(&self, name: &'static str, labels: &[Label]) -> Option<&Gauge> {
        match self.map.get(&Key::new(name, labels))? {
            Instrument::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// Read a histogram back.
    pub fn histogram(&self, name: &'static str, labels: &[Label]) -> Option<&Histogram> {
        match self.map.get(&Key::new(name, labels))? {
            Instrument::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Iterate instruments in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Instrument)> {
        self.map.iter()
    }

    /// Fold another registry into this one: counters add, gauges take
    /// maxima, histograms merge element-wise.
    ///
    /// Counter and histogram merges commute, and gauges use max-merge,
    /// so the folded snapshot is independent of *how observations were
    /// partitioned*. Callers still merge per-shard registries in shard
    /// order by convention — it makes the reduction auditable and keeps
    /// the contract honest if an order-sensitive instrument is ever
    /// added.
    ///
    /// # Panics
    /// If the same key holds different instrument types in the two
    /// registries (a static naming bug, not a data condition).
    pub fn merge_from(&mut self, other: &Registry) {
        for (key, theirs) in &other.map {
            match self.map.get_mut(key) {
                None => {
                    self.map.insert(key.clone(), theirs.clone());
                }
                Some(mine) => match (mine, theirs) {
                    (Instrument::Counter(a), Instrument::Counter(b)) => a.merge(b),
                    (Instrument::Gauge(a), Instrument::Gauge(b)) => a.merge(b),
                    (Instrument::Histogram(a), Instrument::Histogram(b)) => a.merge(b),
                    (mine, theirs) => {
                        panic!("instrument '{key}' type mismatch: {mine:?} vs {theirs:?}")
                    }
                },
            }
        }
    }

    /// Deterministic text rendering: one sorted line per instrument.
    /// Histogram lines list only non-empty buckets as `bN:count`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, inst) in &self.map {
            match inst {
                Instrument::Counter(c) => {
                    out.push_str(&format!("counter {key} {}\n", c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!(
                        "gauge   {key} last={} high_water={}\n",
                        g.last(),
                        g.high_water()
                    ));
                }
                Instrument::Histogram(h) => {
                    out.push_str(&format!(
                        "hist    {key} count={} sum={} min={} max={} buckets=[",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                    ));
                    let mut first = true;
                    for (i, &n) in h.buckets().iter().enumerate() {
                        if n > 0 {
                            if !first {
                                out.push(' ');
                            }
                            out.push_str(&format!("b{i}:{n}"));
                            first = false;
                        }
                    }
                    out.push_str("]\n");
                }
            }
        }
        out
    }

    /// JSON form of the registry (sorted instrument array).
    pub(crate) fn to_json(&self) -> Json {
        let mut items = Vec::with_capacity(self.map.len());
        for (key, inst) in &self.map {
            let mut labels = Json::obj();
            for (k, v) in key.labels() {
                labels = labels.field(
                    k,
                    match v {
                        LabelValue::Str(s) => Json::str(*s),
                        LabelValue::U64(n) => Json::int(*n),
                    },
                );
            }
            let base = Json::obj()
                .field("name", Json::str(key.name()))
                .field("labels", labels);
            items.push(match inst {
                Instrument::Counter(c) => base
                    .field("type", Json::str("counter"))
                    .field("value", Json::int(c.get())),
                Instrument::Gauge(g) => base
                    .field("type", Json::str("gauge"))
                    .field("last", Json::sint(g.last()))
                    .field("high_water", Json::sint(g.high_water())),
                Instrument::Histogram(h) => {
                    let buckets = h
                        .buckets()
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| Json::Arr(vec![Json::int(i as u64), Json::int(n)]))
                        .collect();
                    base.field("type", Json::str("histogram"))
                        .field("count", Json::int(h.count()))
                        .field("sum", Json::Num(h.sum() as f64))
                        .field("min", Json::int(h.min().unwrap_or(0)))
                        .field("max", Json::int(h.max().unwrap_or(0)))
                        .field("buckets", Json::Arr(buckets))
                }
            });
        }
        Json::Arr(items)
    }
}

/// FNV-1a over a byte slice (same constants as the scenario digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_order_is_normalized() {
        let a = Key::new("x", &[("lane", 1u64.into()), ("kind", "beacon".into())]);
        let b = Key::new("x", &[("kind", "beacon".into()), ("lane", 1u64.into())]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "x{kind=beacon,lane=1}");
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.inc("z.last", &[], 1);
        r.inc("a.first", &[("lane", 2u64.into())], 5);
        r.gauge_set("m.depth", &[], 7);
        r.observe("m.hist", &[], 3);
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("counter a.first{lane=2} 5"));
        assert!(lines[3].starts_with("counter z.last 1"));
        assert_eq!(text, r.clone().render());
    }

    #[test]
    fn merge_matches_single_registry() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let mut whole = Registry::new();
        for i in 0..10u64 {
            let (part, _other) = if i % 2 == 0 {
                (&mut a, &b)
            } else {
                (&mut b, &a)
            };
            part.inc("n", &[], i);
            part.observe("h", &[], i * i);
            part.gauge_set("g", &[], i as i64);
            whole.inc("n", &[], i);
            whole.observe("h", &[], i * i);
            whole.gauge_set("g", &[], i as i64);
        }
        a.merge_from(&b);
        // Gauge last differs (max-merge), so compare the whole rendered
        // snapshot: max-merge makes last==9 here too since observations
        // ascend.
        assert_eq!(a.render(), whole.render());
    }

    #[test]
    fn json_shape() {
        let mut r = Registry::new();
        r.inc("c", &[("lane", 0u64.into())], 3);
        let text = r.to_json().render();
        assert_eq!(
            text,
            r#"[{"name":"c","labels":{"lane":0},"type":"counter","value":3}]"#
        );
    }
}
