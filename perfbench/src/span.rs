//! Host-time spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers one call (or one tight loop of calls) the benchmark makes,
//! and whatever the benchmark does between spans lands in the `other`
//! bucket, so the layer self times plus `other` sum to the traced wall time
//! exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers spans are attributed to — this repository's crates — with
/// the name of each one's self-time metric.
pub const LAYERS: [(&str, &str); 7] = [
    ("workloads", "workloads.self_s"),
    ("sim", "sim.self_s"),
    ("core", "core.self_s"),
    ("harness", "harness.self_s"),
    ("analysis", "analysis.self_s"),
    ("serve", "serve.self_s"),
    ("diagnose", "diagnose.self_s"),
];

/// Span recorder. Spans do not nest; each is a leaf whose self time is its
/// duration. Disabled, a span is a plain call.
pub struct Tracer {
    on: bool,
    /// Span name (`<layer>.<what>`) → (calls, total seconds).
    spans: BTreeMap<&'static str, (u64, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`, whose first dot-separated part
    /// is one of [`LAYERS`].
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        debug_assert!(LAYERS.iter().any(|l| name.split('.').next() == Some(l.0)));
        let t = Instant::now();
        let r = f();
        let e = self.spans.entry(name).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += t.elapsed().as_secs_f64();
        r
    }

    /// Total seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1)
    }

    /// Self time of every layer over the spans recorded so far, by the
    /// layer's metric name.
    pub fn layer_secs(&self) -> Vec<(&'static str, f64)> {
        LAYERS
            .iter()
            .map(|&(layer, metric)| {
                let total = self
                    .spans
                    .iter()
                    .filter(|(name, _)| name.split('.').next() == Some(layer))
                    .fold(0.0, |acc, (_, s)| acc + s.1);
                (metric, total)
            })
            .collect()
    }

    /// Spans recorded so far.
    pub fn count(&self) -> u64 {
        self.spans.values().map(|s| s.0).sum()
    }
}
