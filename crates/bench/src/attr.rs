//! Per-layer time attribution from a structured trace.
//!
//! The paper's Table I decomposes small-message latency into the time spent
//! in each layer of the stack. This module rebuilds that decomposition from
//! a [`TraceSink`] buffer: every span's duration is charged to the layer
//! its event-name prefix belongs to, so a traced run yields the same table
//! for any benchmark without per-benchmark instrumentation.

use std::collections::BTreeMap;

use rucx_compat::json::{JsonObject, ToJson};
use rucx_sim::trace::TraceSink;

/// Stack layer an event name is attributed to (by its prefix before the
/// first `.`). Unknown prefixes land in `"Other"` rather than being
/// dropped, so a new event taxonomy shows up in the table instead of
/// silently vanishing from it.
pub fn layer_of(name: &str) -> &'static str {
    let cat = match name.find('.') {
        Some(i) => &name[..i],
        None => name,
    };
    match cat {
        "ucp" => "UCX",
        "fabric" => "Fabric",
        "charm" | "ampi" => "Runtime",
        "charm4py" => "Python",
        _ => "Other",
    }
}

/// Accumulated span time and event count for one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotals {
    /// Sum of span durations (ns). Instants contribute 0 here.
    pub busy_ns: u64,
    /// Number of events (spans *and* instants).
    pub events: u64,
}

/// Per-layer time-attribution table built from trace events.
///
/// `BTreeMap` keeps the row order deterministic (alphabetical by layer),
/// which in turn keeps the JSON output byte-stable for identical traces.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    pub layers: BTreeMap<&'static str, LayerTotals>,
}

impl Attribution {
    /// Charge every event in a sink's current buffer to its layer.
    pub fn from_sink(sink: &TraceSink) -> Self {
        let mut a = Attribution::default();
        for ev in sink.events() {
            let t = a.layers.entry(layer_of(ev.name)).or_default();
            t.busy_ns += ev.dur();
            t.events += 1;
        }
        a
    }

    /// Total attributed span time across all layers (ns).
    pub fn total_ns(&self) -> u64 {
        self.layers.values().map(|t| t.busy_ns).sum()
    }

    /// Rows for [`crate::print_table`]: layer, busy µs, share of the
    /// attributed total, and event count.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let total = self.total_ns().max(1) as f64;
        self.layers
            .iter()
            .map(|(layer, t)| {
                vec![
                    layer.to_string(),
                    format!("{:.2}", t.busy_ns as f64 / 1_000.0),
                    format!("{:.1}%", 100.0 * t.busy_ns as f64 / total),
                    t.events.to_string(),
                ]
            })
            .collect()
    }
}

impl ToJson for Attribution {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::new(out);
        for (layer, t) in &self.layers {
            o = o.field(layer, &(t.busy_ns, t.events));
        }
        o.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_sim::trace::TraceSink;

    #[test]
    fn prefixes_map_to_layers() {
        assert_eq!(layer_of("ucp.rndv.rts"), "UCX");
        assert_eq!(layer_of("fabric.link.busy"), "Fabric");
        assert_eq!(layer_of("charm.sched.deliver"), "Runtime");
        assert_eq!(layer_of("ampi.unexpected.enqueue"), "Runtime");
        assert_eq!(layer_of("charm4py.call_overhead"), "Python");
        assert_eq!(layer_of("mystery"), "Other");
    }

    #[test]
    fn spans_accumulate_and_instants_count_only() {
        let mut sink = TraceSink::new();
        sink.enable(64);
        sink.span("ucp.eager", 0, 1_000, 0, 1, 64);
        sink.span("ucp.rndv.rts", 2_000, 2_500, 0, 2, 0);
        sink.instant("charm.sched.deliver", 3_000, 0, 3, 0);
        sink.span("charm4py.call_overhead", 0, 6_000, 0, 0, 6_000);
        let a = Attribution::from_sink(&sink);
        assert_eq!(a.layers["UCX"].busy_ns, 1_500);
        assert_eq!(a.layers["UCX"].events, 2);
        assert_eq!(a.layers["Runtime"].busy_ns, 0);
        assert_eq!(a.layers["Runtime"].events, 1);
        assert_eq!(a.layers["Python"].busy_ns, 6_000);
        assert_eq!(a.total_ns(), 7_500);
        // Deterministic row order: alphabetical by layer name.
        let names: Vec<String> = a.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(names, vec!["Python", "Runtime", "UCX"]);
    }

    #[test]
    fn json_is_deterministic() {
        let build = || {
            let mut sink = TraceSink::new();
            sink.enable(16);
            sink.span("ucp.eager", 0, 100, 0, 1, 8);
            sink.span("fabric.link.busy", 0, 50, 1, 1, 8);
            Attribution::from_sink(&sink).to_json()
        };
        assert_eq!(build(), build());
        assert!(build().contains("\"UCX\""));
    }
}
