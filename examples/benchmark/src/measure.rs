//! Small measuring helpers shared by the workloads, the ladder and the
//! driver: order statistics, a named metric, `/proc/self` readers, the
//! digest fold, and case-by-case execution under `catch_unwind`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::trace::Spans;

/// Median of a sample (mean of the two middle values for even counts).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One reported number: a median over `samples` measurements plus the
/// fastest of them (virtual metrics repeat exactly, so min == value).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub min: f64,
    pub samples: usize,
}

impl Metric {
    pub fn from_samples(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: median(samples),
            min: min(samples),
            samples: samples.len(),
        }
    }

    /// A value that is computed, not sampled (counts, virtual times).
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            min: value,
            samples: 1,
        }
    }

    pub fn print(&self) {
        println!(
            "  {:<46} {:>16.4} {:<10} n={:<3} min={:.4}",
            self.name, self.value, self.unit, self.samples, self.min
        );
    }
}

/// User + system CPU seconds of every thread of this process
/// (`/proc/self/stat` fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kb / 1024.0
}

/// Order-dependent fold of simulated outputs (bit patterns, so two
/// digests are equal only when every value is bit-identical).
pub fn digest(outs: &[Option<Vec<f64>>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        let mut s = h ^ x;
        h = rucx::compat::rng::splitmix64(&mut s);
    };
    for (i, o) in outs.iter().enumerate() {
        eat(i as u64);
        match o {
            Some(v) => v.iter().for_each(|x| eat(x.to_bits())),
            None => eat(u64::MAX),
        }
    }
    h
}

/// One unit of a pass: a single call into the `rucx` facade.
pub struct Case {
    /// Span name — the facade function this case times (`osu.latency`, …).
    pub span: &'static str,
    /// Split key the case's host time is charged to (`ompi`, `cache_on`, …).
    pub key: String,
    /// Workload operations this case performs (fixed).
    pub ops: u64,
    /// Runs the simulation(s) and returns the simulated outputs.
    pub run: Box<dyn Fn() -> Vec<f64>>,
}

impl Case {
    pub fn new(
        span: &'static str,
        key: impl Into<String>,
        ops: u64,
        run: impl Fn() -> Vec<f64> + 'static,
    ) -> Self {
        Case {
            span,
            key: key.into(),
            ops,
            run: Box::new(run),
        }
    }
}

/// What one pass over a case list produced.
pub struct Pass {
    pub wall_s: f64,
    /// Host nanoseconds per case, in case order.
    pub case_ns: Vec<f64>,
    /// Simulated outputs per case; `None` if the case panicked (a
    /// simulation that misses `RunOutcome::Completed` panics in the crates).
    pub outs: Vec<Option<Vec<f64>>>,
}

impl Pass {
    pub fn failed_ops(&self, cases: &[Case]) -> u64 {
        cases
            .iter()
            .zip(&self.outs)
            .filter(|(_, o)| o.is_none())
            .map(|(c, _)| c.ops)
            .sum()
    }

    /// Outputs of a pass in which every case completed.
    pub fn complete_outs(&self) -> Option<Vec<Vec<f64>>> {
        self.outs.iter().cloned().collect()
    }
}

/// Run every case once, in order, each under `catch_unwind`. With `spans`
/// the pass and each case are recorded as host-time spans.
pub fn run_pass(cases: &[Case], mut spans: Option<&mut Spans>) -> Pass {
    let pass_span = spans.as_deref_mut().map(|s| s.begin("pass"));
    let t0 = Instant::now();
    let mut case_ns = Vec::with_capacity(cases.len());
    let mut outs = Vec::with_capacity(cases.len());
    for c in cases {
        let span = spans.as_deref_mut().map(|s| s.begin(c.span));
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| (c.run)())).ok();
        case_ns.push(t.elapsed().as_nanos() as f64);
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), span) {
            s.end(id);
        }
        outs.push(out);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let (Some(s), Some(id)) = (spans, pass_span) {
        s.end(id);
    }
    Pass {
        wall_s,
        case_ns,
        outs,
    }
}

/// Host nanoseconds charged to `key`, per operation of the cases that carry it.
pub fn ns_per_op(cases: &[Case], case_ns: &[f64], key: &str) -> f64 {
    let (mut ns, mut ops) = (0.0, 0u64);
    for (c, t) in cases.iter().zip(case_ns) {
        if c.key == key {
            ns += t;
            ops += c.ops;
        }
    }
    assert!(ops > 0, "no case carries split key `{key}`");
    ns / ops as f64
}
