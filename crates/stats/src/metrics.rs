//! Hierarchical, machine-readable metrics export.
//!
//! A [`MetricsSink`] mirrors the component tree of the simulated system
//! (`system` → `l2`, `core0..N`, `mc0..M` → …) and holds each component's
//! named metrics as typed values: counters, gauges, or histogram summaries.
//! Insertion order of both metrics and children is preserved so exports
//! read in the same stable order as the human-facing tables.
//!
//! Names are `Cow<'static, str>`: the literal names devices write
//! (`"dl1.hits"`, …) are borrowed, names built with `format!` or read from
//! JSON are owned. A histogram's summary is boxed, so every
//! [`MetricValue`] is 16 bytes and a `(name, value)` entry 40.
//!
//! Sinks serialize to JSON ([`MetricsSink::to_json`]), round-trip back
//! from it, and can be diffed against a baseline with a relative tolerance
//! ([`MetricsSink::diff`]) — the machinery behind `reproduce --out` /
//! `reproduce --baseline`.
//!
//! # Examples
//!
//! ```
//! use stacksim_stats::{MetricValue, MetricsSink};
//!
//! let mut sys = MetricsSink::new("system");
//! sys.counter("cycles", 60_000);
//! let l2 = sys.child_mut("l2");
//! l2.counter("hits", 90);
//! l2.gauge("miss_rate", 0.1);
//!
//! assert_eq!(sys.get("cycles"), Some(60_000.0));
//! assert_eq!(sys.get("l2.miss_rate"), Some(0.1));
//!
//! let json = sys.to_json();
//! assert_eq!(MetricsSink::from_json(json).unwrap(), sys);
//! ```

use core::fmt;
use std::borrow::Cow;

use crate::json::Json;
use crate::Histogram;

/// A five-number summary of a [`Histogram`], small enough to export per run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Mean sample value (0 when empty).
    pub mean: f64,
    /// Median (p50) sample; 0 when empty or in the overflow bucket.
    pub p50: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Samples past the dense bucket range.
    pub overflow: u64,
}

impl HistSummary {
    /// Summarizes a full histogram.
    pub fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean().unwrap_or(0.0),
            p50: h.quantile(0.5).unwrap_or(0),
            max: h.max_seen(),
            overflow: h.overflow(),
        }
    }
}

/// One exported metric value.
///
/// 16 bytes: the rarely used histogram summary is boxed so that it does
/// not set the size of every counter and gauge.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonic event count (row hits, retries, committed instructions).
    Counter(u64),
    /// A point-in-time or derived value (rates, means, temperatures).
    Gauge(f64),
    /// A distribution summary.
    Histogram(Box<HistSummary>),
}

impl MetricValue {
    /// The value as an `f64` — the counter value, the gauge, or the
    /// histogram mean. This is the scalar used for flattening and diffing.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(n) => *n as f64,
            MetricValue::Gauge(g) => *g,
            MetricValue::Histogram(h) => h.mean,
        }
    }
}

/// A hierarchical sink of named metrics: one node per simulated component,
/// with ordered metrics and ordered child components.
///
/// Each device that owns a node writes its own metrics into it;
/// `docs/METRICS.md` documents the full schema.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSink {
    name: Cow<'static, str>,
    metrics: Vec<(Cow<'static, str>, MetricValue)>,
    children: Vec<MetricsSink>,
}

/// One metric that differs between a run and its baseline.
///
/// Produced by [`MetricsSink::diff`]; `Display` renders a one-line
/// human-readable description.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDiff {
    /// Dotted path of the metric relative to the compared roots.
    pub path: String,
    /// Value in the baseline, if present there.
    pub baseline: Option<f64>,
    /// Value in the current run, if present there.
    pub current: Option<f64>,
}

impl fmt::Display for MetricDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => write!(f, "{}: baseline {b} vs current {c}", self.path),
            (Some(b), None) => write!(f, "{}: baseline {b} missing from current run", self.path),
            (None, Some(c)) => write!(f, "{}: current {c} missing from baseline", self.path),
            (None, None) => write!(f, "{}: absent on both sides", self.path),
        }
    }
}

impl MetricsSink {
    /// Creates an empty sink for a named component.
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        MetricsSink {
            name: name.into(),
            metrics: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The component name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records (or overwrites) a counter metric.
    pub fn counter(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        self.set(name.into(), MetricValue::Counter(value));
    }

    /// Records (or overwrites) a gauge metric.
    pub fn gauge(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        self.set(name.into(), MetricValue::Gauge(value));
    }

    /// Records (or overwrites) a histogram summary metric.
    pub fn histogram(&mut self, name: impl Into<Cow<'static, str>>, h: &Histogram) {
        self.set(
            name.into(),
            MetricValue::Histogram(Box::new(HistSummary::of(h))),
        );
    }

    fn set(&mut self, name: Cow<'static, str>, value: MetricValue) {
        if let Some(m) = self.metrics.iter_mut().find(|(n, _)| *n == name) {
            m.1 = value;
        } else {
            self.metrics.push((name, value));
        }
    }

    /// Returns the child component with this name, creating it (at the end
    /// of the child list) if absent.
    pub fn child_mut(&mut self, name: impl Into<Cow<'static, str>>) -> &mut MetricsSink {
        let name = name.into();
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            &mut self.children[i]
        } else {
            self.children.push(MetricsSink::new(name));
            self.children.last_mut().expect("just pushed")
        }
    }

    /// The child component with this name, if present.
    pub fn child(&self, name: &str) -> Option<&MetricsSink> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Child components in insertion order.
    pub fn children(&self) -> impl Iterator<Item = &MetricsSink> {
        self.children.iter()
    }

    /// This component's own `(name, value)` metrics in insertion order.
    pub fn metrics(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(n, v)| (n.as_ref(), v))
    }

    /// Looks up a metric by dotted path relative to this node, e.g.
    /// `"l2.miss_rate"` or `"mc0.ranks.refreshes"`.
    ///
    /// Because metric names may themselves contain dots, the full remaining
    /// path is tried as a local metric name first, then the first segment is
    /// tried as a child component. Returns the scalar view of the metric
    /// ([`MetricValue::as_f64`]).
    pub fn get(&self, path: &str) -> Option<f64> {
        self.get_value(path).map(MetricValue::as_f64)
    }

    /// Like [`MetricsSink::get`] but returns the typed value.
    pub fn get_value(&self, path: &str) -> Option<&MetricValue> {
        if let Some(m) = self.metrics.iter().find(|(n, _)| n == path) {
            return Some(&m.1);
        }
        let (head, rest) = path.split_once('.')?;
        self.child(head)?.get_value(rest)
    }

    /// Flattens the tree to `(dotted_path, scalar)` pairs in depth-first
    /// order. The root's own name is *not* prefixed, so paths read as
    /// [`MetricsSink::get`] takes them (`"l2.misses"`, not
    /// `"system.l2.misses"`).
    pub fn flatten(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        self.flatten_into("", &mut out);
        out
    }

    fn flatten_into(&self, prefix: &str, out: &mut Vec<(String, f64)>) {
        for (name, value) in &self.metrics {
            out.push((format!("{prefix}{name}"), value.as_f64()));
        }
        for child in &self.children {
            child.flatten_into(&format!("{prefix}{}.", child.name), out);
        }
    }

    /// Drops the spare capacity of every node's metric and child lists, so
    /// a tree kept for the rest of a run costs only its entries.
    pub fn shrink_to_fit(&mut self) {
        self.metrics.shrink_to_fit();
        for child in &mut self.children {
            child.shrink_to_fit();
        }
        self.children.shrink_to_fit();
    }

    /// Total number of metrics in this node and all descendants.
    pub fn len(&self) -> usize {
        self.metrics.len() + self.children.iter().map(MetricsSink::len).sum::<usize>()
    }

    /// Whether the whole tree holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the tree to a [`Json`] object:
    /// `{"name": ..., "metrics": {...}, "children": [...]}` with counters as
    /// integers, gauges as numbers, and histogram summaries as objects.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v)| {
                let jv = match v {
                    MetricValue::Counter(c) => Json::Num(*c as f64),
                    MetricValue::Gauge(g) => Json::Num(*g),
                    MetricValue::Histogram(h) => Json::Obj(vec![
                        ("count".into(), Json::Num(h.count as f64)),
                        ("mean".into(), Json::Num(h.mean)),
                        ("p50".into(), Json::Num(h.p50 as f64)),
                        ("max".into(), Json::Num(h.max as f64)),
                        ("overflow".into(), Json::Num(h.overflow as f64)),
                    ]),
                };
                (n.to_string(), jv)
            })
            .collect();
        let children = self.children.iter().map(MetricsSink::to_json).collect();
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.to_string())),
            ("metrics".into(), Json::Obj(metrics)),
            ("children".into(), Json::Arr(children)),
        ])
    }

    /// Reconstructs a sink from [`MetricsSink::to_json`] output, moving
    /// its names out of `v` and sizing every list exactly.
    ///
    /// Counters round-trip as counters (an integer-valued number whose name
    /// was written by [`MetricsSink::counter`] comes back as
    /// [`MetricValue::Counter`] only if it is a non-negative integer — the
    /// JSON carries no explicit tag, so exact integers are read as counters
    /// and everything else as gauges; scalar views and diffs are unaffected).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural mismatch.
    pub fn from_json(mut v: Json) -> Result<MetricsSink, String> {
        let Some(Json::Str(name)) = v.take("name") else {
            return Err("metrics node missing string 'name'".into());
        };
        let Some(Json::Obj(metrics)) = v.take("metrics") else {
            return Err("metrics node missing object 'metrics'".into());
        };
        let Some(Json::Arr(children)) = v.take("children") else {
            return Err("metrics node missing array 'children'".into());
        };
        let mut sink = MetricsSink {
            name: name.into(),
            metrics: Vec::with_capacity(metrics.len()),
            children: Vec::with_capacity(children.len()),
        };
        for (mname, mval) in metrics {
            let value = match &mval {
                Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.0e15 => {
                    MetricValue::Counter(*n as u64)
                }
                Json::Num(n) => MetricValue::Gauge(*n),
                Json::Obj(_) => {
                    let field = |k: &str| {
                        mval.get(k)
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("histogram '{mname}' missing '{k}'"))
                    };
                    MetricValue::Histogram(Box::new(HistSummary {
                        count: field("count")? as u64,
                        mean: field("mean")?,
                        p50: field("p50")? as u64,
                        max: field("max")? as u64,
                        overflow: field("overflow")? as u64,
                    }))
                }
                other => return Err(format!("metric '{mname}' has invalid value {other}")),
            };
            sink.set(mname.into(), value);
        }
        for child in children {
            sink.children.push(MetricsSink::from_json(child)?);
        }
        Ok(sink)
    }

    /// Compares this sink against a `baseline`, returning every metric whose
    /// scalar value differs by more than `rel_tol` (relative to the larger
    /// magnitude; exact-zero pairs always match), plus metrics present on
    /// only one side. An empty result means the runs agree.
    ///
    /// # Examples
    ///
    /// ```
    /// use stacksim_stats::MetricsSink;
    ///
    /// let mut base = MetricsSink::new("system");
    /// base.gauge("hmipc", 1.000);
    /// let mut run = MetricsSink::new("system");
    /// run.gauge("hmipc", 1.0001);
    ///
    /// assert!(run.diff(&base, 1e-3).is_empty());     // within tolerance
    /// assert_eq!(run.diff(&base, 1e-6).len(), 1);    // beyond tolerance
    /// ```
    pub fn diff(&self, baseline: &MetricsSink, rel_tol: f64) -> Vec<MetricDiff> {
        let ours = self.flatten();
        let theirs = baseline.flatten();
        let mut diffs = Vec::new();
        for (path, current) in &ours {
            match theirs.iter().find(|(p, _)| p == path) {
                Some((_, base)) => {
                    if !within_tol(*current, *base, rel_tol) {
                        diffs.push(MetricDiff {
                            path: path.clone(),
                            baseline: Some(*base),
                            current: Some(*current),
                        });
                    }
                }
                None => diffs.push(MetricDiff {
                    path: path.clone(),
                    baseline: None,
                    current: Some(*current),
                }),
            }
        }
        for (path, base) in &theirs {
            if !ours.iter().any(|(p, _)| p == path) {
                diffs.push(MetricDiff {
                    path: path.clone(),
                    baseline: Some(*base),
                    current: None,
                });
            }
        }
        diffs
    }
}

fn within_tol(a: f64, b: f64, rel_tol: f64) -> bool {
    if a == b {
        return true; // covers exact zeros and identical values
    }
    if a.is_nan() && b.is_nan() {
        return true; // both undefined (e.g. rate with zero denominator)
    }
    (a - b).abs() <= rel_tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSink {
        let mut sys = MetricsSink::new("system");
        sys.counter("cycles", 60_000);
        sys.gauge("hmipc", 1.25);
        let mut h = Histogram::new(8);
        h.record(1);
        h.record(3);
        sys.histogram("probes", &h);
        let l2 = sys.child_mut("l2");
        l2.counter("hits", 90);
        l2.gauge("miss_rate", 0.1);
        let mc = sys.child_mut("mc0");
        mc.gauge("ranks.refreshes", 12.5);
        sys
    }

    #[test]
    fn get_resolves_dotted_paths() {
        let s = sample();
        assert_eq!(s.get("cycles"), Some(60_000.0));
        assert_eq!(s.get("l2.miss_rate"), Some(0.1));
        // Metric name containing a dot wins over a (missing) child descent.
        assert_eq!(s.get("mc0.ranks.refreshes"), Some(12.5));
        assert_eq!(s.get("l2.nope"), None);
        assert_eq!(s.get("nope"), None);
    }

    #[test]
    fn flatten_matches_statrecord_naming() {
        let s = sample();
        let flat = s.flatten();
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "cycles",
                "hmipc",
                "probes",
                "l2.hits",
                "l2.miss_rate",
                "mc0.ranks.refreshes"
            ]
        );
        assert_eq!(s.len(), 6);
        assert!(!s.is_empty());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let s = sample();
        assert!(matches!(
            s.get_value("probes"),
            Some(MetricValue::Histogram(_))
        ));
        let parsed = MetricsSink::from_json(Json::parse(&s.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn a_metric_entry_is_forty_bytes() {
        assert_eq!(size_of::<MetricValue>(), 16);
        assert_eq!(size_of::<(Cow<'static, str>, MetricValue)>(), 40);
    }

    #[test]
    fn literal_names_are_borrowed() {
        let mut s = MetricsSink::new("system");
        s.counter("x", 1);
        s.counter(format!("core{}", 0), 2);
        assert!(matches!(s.name, Cow::Borrowed("system")));
        assert!(matches!(s.metrics[0].0, Cow::Borrowed("x")));
        assert!(matches!(s.metrics[1].0, Cow::Owned(_)));
        assert!(matches!(s.child_mut("l2").name, Cow::Borrowed("l2")));
    }

    /// Whether every node of the tree holds no spare list capacity.
    fn exactly_sized(s: &MetricsSink) -> bool {
        s.metrics.capacity() == s.metrics.len()
            && s.children.capacity() == s.children.len()
            && s.children.iter().all(exactly_sized)
    }

    #[test]
    fn shrunk_and_decoded_trees_have_no_spare_capacity() {
        let mut s = sample();
        assert!(!exactly_sized(&s), "a built tree keeps growth slack");
        s.shrink_to_fit();
        assert!(exactly_sized(&s));
        assert!(exactly_sized(
            &MetricsSink::from_json(sample().to_json()).unwrap()
        ));
    }

    #[test]
    fn gauges_with_integer_values_round_trip_as_scalars() {
        // A whole-valued gauge deserializes as a Counter (JSON carries no
        // tag), but its scalar view — all that diffing uses — is unchanged.
        let mut s = MetricsSink::new("x");
        s.gauge("whole", 4.0);
        let back = MetricsSink::from_json(s.to_json()).unwrap();
        assert_eq!(back.get("whole"), Some(4.0));
        assert_eq!(back.flatten(), s.flatten());
    }

    #[test]
    fn diff_flags_changes_and_missing() {
        let base = sample();
        let mut run = sample();
        run.child_mut("l2").counter("hits", 95); // perturbed
        run.gauge("extra", 1.0); // only in current
        let diffs = run.diff(&base, 1e-9);
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].path, "extra");
        assert_eq!(diffs[1].path, "l2.hits");
        assert_eq!(diffs[1].baseline, Some(90.0));
        assert_eq!(diffs[1].current, Some(95.0));
        assert!(diffs[1].to_string().contains("l2.hits"));

        // Identical sinks never differ, at any tolerance.
        assert!(base.diff(&base, 0.0).is_empty());
    }

    #[test]
    fn diff_tolerance_is_relative() {
        let mut a = MetricsSink::new("s");
        a.gauge("v", 100.0);
        let mut b = MetricsSink::new("s");
        b.gauge("v", 100.05);
        assert!(b.diff(&a, 1e-3).is_empty());
        assert_eq!(b.diff(&a, 1e-6).len(), 1);
        // NaN == NaN for diffing purposes (undefined rates).
        let mut c = MetricsSink::new("s");
        c.gauge("v", f64::NAN);
        assert!(c.diff(&c.clone(), 0.0).is_empty());
    }

    #[test]
    fn overwrite_keeps_position() {
        let mut s = MetricsSink::new("x");
        s.counter("a", 1);
        s.counter("b", 2);
        s.counter("a", 3);
        let flat = s.flatten();
        assert_eq!(flat[0], ("a".into(), 3.0));
        assert_eq!(flat.len(), 2);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(MetricsSink::from_json(Json::parse("{}").unwrap()).is_err());
        let bad = Json::parse(r#"{"name":"x","metrics":{"m":"str"},"children":[]}"#).unwrap();
        assert!(MetricsSink::from_json(bad).is_err());
        let bad_hist =
            Json::parse(r#"{"name":"x","metrics":{"h":{"count":1}},"children":[]}"#).unwrap();
        assert!(MetricsSink::from_json(bad_hist).is_err());
    }
}
