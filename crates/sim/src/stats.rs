//! The counter half of the observability sink.
//!
//! One [`Counters`] lives in the [`crate::Scheduler`] (`sched.metrics`)
//! beside the trace sink, so a simulation has exactly one namespace of
//! counted events and every model layer records into it through the
//! scheduler it already holds ([`crate::Scheduler::count`],
//! [`crate::Scheduler::count_n`], [`crate::Scheduler::mark`]).

/// A typed handle into the metrics namespace: a static name.
///
/// Model layers declare every name they emit — counters and trace events
/// alike — as `const`s in a per-crate `metrics` module (e.g.
/// `rucx_ucp::metrics::RNDV_IPC`) and pass the handle to the scheduler;
/// string literals at call sites are rejected by `scripts/check.sh`, and
/// so is the same literal declared twice. The name is the stable external
/// identity — tests and JSON output read by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
}

impl Metric {
    /// Declare a counter: a monotonically increasing count (protocol
    /// choices, cache hits, bytes…).
    pub const fn counter(name: &'static str) -> Self {
        Metric { name }
    }
}

/// Named counter values with deterministic (insertion) iteration order.
/// Updates go through typed [`Metric`] handles; reads are by name.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
}

impl Counters {
    /// Add `v` to counter `m`, creating it at zero if absent.
    pub fn add(&mut self, m: Metric, v: u64) {
        match self.entries.iter_mut().find(|(n, _)| *n == m.name) {
            Some((_, c)) => *c += v,
            None => self.entries.push((m.name, v)),
        }
    }

    /// Read a counter by name (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Iterate `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_get() {
        const EAGER: Metric = Metric::counter("eager");
        const RNDV: Metric = Metric::counter("rndv");
        let mut c = Counters::default();
        c.add(EAGER, 1);
        c.add(EAGER, 1);
        c.add(RNDV, 5);
        assert_eq!(c.get("eager"), 2);
        assert_eq!(c.get("rndv"), 5);
        assert_eq!(c.get("missing"), 0);
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["eager", "rndv"]);
    }

    #[test]
    fn equal_names_at_different_addresses_merge() {
        let elsewhere: &'static str = Box::leak(String::from("eager").into_boxed_str());
        let mut c = Counters::default();
        c.add(Metric::counter("eager"), 1);
        c.add(Metric::counter(elsewhere), 2);
        assert_eq!(c.iter().collect::<Vec<_>>(), [("eager", 3)]);
    }
}
