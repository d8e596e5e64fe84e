//! Host-time span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into the crates (spans inside the crates are a later issue). They stay
//! in memory until the run ends, then go out as Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto). A span's self time is its duration
//! minus the part its children cover.
//!
//! The simulator's own `TraceSink` records *virtual*-time spans; on rungs
//! the benchmark owns it is folded through `rucx::bench::attr` into
//! per-layer shares of attributed virtual time.

use std::time::Instant;

use rucx::bench::attr::Attribution;
use rucx::sim::TraceSink;

/// The layers `rucx::bench::attr::layer_of` can name.
pub const VIRT_LAYERS: [&str; 5] = ["UCX", "Fabric", "Runtime", "Python", "Other"];

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Index into [`Spans::workloads`]: the workload or ladder this span
    /// was recorded for.
    pub workload: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; `begin`/`end` nest like a call stack.
pub struct Spans {
    /// Workload ids; new spans carry the last one.
    pub workloads: Vec<String>,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: impl Into<String>) -> Self {
        Spans {
            workloads: vec![workload.into()],
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans begun from now on belong to `workload`.
    pub fn set_workload(&mut self, workload: impl Into<String>) {
        self.workloads.push(workload.into());
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            workload: self.workloads.len() - 1,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Duration of span `id` minus the durations of its direct children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Total self time per span name, largest first.
    pub fn self_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for id in 0..self.spans.len() {
            let name = self.spans[id].name;
            match totals.iter_mut().find(|t| t.0 == name) {
                Some(t) => t.1 += self.self_ns(id),
                None => totals.push((name, self.self_ns(id))),
            }
        }
        totals.sort_by_key(|t| std::cmp::Reverse(t.1));
        totals
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, with
    /// the parent span, the self time and the workload in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"self_us\":{:.3},\"workload\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                self.self_ns(id) as f64 / 1e3,
                self.workloads[s.workload],
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Share of attributed virtual span time per layer, in percent, in
/// `VIRT_LAYERS` order (all zero when the sink recorded no spans).
pub fn virt_share_pct(sink: &TraceSink) -> [f64; 5] {
    let attr = Attribution::from_sink(sink);
    let total = attr.total_ns().max(1) as f64;
    VIRT_LAYERS.map(|l| {
        attr.layers
            .get(l)
            .map_or(0.0, |t| 100.0 * t.busy_ns as f64 / total)
    })
}
