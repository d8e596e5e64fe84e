//! Structured, deterministic event tracing (`rucx-trace`).
//!
//! A per-simulation ring-buffered sink records typed spans and instants
//! stamped with virtual time, PE, and a message id, across every layer of
//! the stack (`ucp.*`, `fault.*`, `fabric.*`, `charm.*`, `ampi.*`,
//! `charm4py.*`). The sink lives inside the [`crate::Scheduler`], beside
//! the counters ([`crate::stats`]), so every emission site — event
//! closures, world calls, protocol state machines — already has it in
//! hand; an event that is also counted is recorded with
//! [`crate::Scheduler::mark`], which names it once.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Events carry virtual time only; buffer contents and
//!    the serialized Chrome-trace JSON are a pure function of
//!    `(seed, config)`. No wall clock, no addresses, no hashing order.
//! 2. **Zero-cost when disabled.** The sink starts disabled; every emission
//!    helper first tests one `bool`. The resume hot path
//!    (`ProcCtx::advance`) does not touch the sink at all.
//! 3. **Bounded.** The ring buffer drops the *oldest* events past capacity
//!    and counts the drops, so long runs cannot exhaust memory and the tail
//!    of a run (usually what you want to look at) survives.
//!
//! Serialization targets the Chrome trace-event format (the JSON array
//! flavour), so any figure run can be opened in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): spans become `"ph": "X"` complete
//! events, instants `"ph": "i"`, `pid` is always 0 and `tid` is the PE.

use std::collections::VecDeque;

use rucx_compat::json::{JsonObject, ToJson};

use crate::time::{Duration, Time};

/// Default ring capacity: enough for a figure run's interesting tail
/// without letting pathological loops grow without bound.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Event flavour, mirroring the Chrome trace-event phases we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A point event (`"ph": "i"`).
    Instant,
    /// A complete span with an explicit duration (`"ph": "X"`).
    Complete(Duration),
}

/// One trace record. `name` is a `&'static str` constant from the emitting
/// crate's `metrics.rs` (e.g. `rucx_ucp::metrics::TRACE_RNDV_RTS`), never a
/// formatted string — both for cost and so the set of names is closed.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    pub name: &'static str,
    pub phase: Phase,
    /// Virtual start time of the event.
    pub ts: Time,
    /// Processing element (simulated process index) the event belongs to.
    pub pe: u32,
    /// Correlation id: message/RTS/sequence id where the layer has one,
    /// 0 otherwise.
    pub id: u64,
    /// One free payload word (message size, queue depth…).
    pub arg: u64,
}

impl TraceEvent {
    /// Span duration (0 for instants).
    pub fn dur(&self) -> Duration {
        match self.phase {
            Phase::Instant => 0,
            Phase::Complete(d) => d,
        }
    }

    /// Event category for viewers: the layer prefix before the first `.`.
    pub fn category(&self) -> &'static str {
        match self.name.find('.') {
            Some(i) => &self.name[..i],
            None => self.name,
        }
    }
}

impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        // Chrome trace format: ts/dur are in microseconds; fractional
        // values are accepted, which preserves the simulator's ns clock.
        let ts_us = self.ts as f64 / 1_000.0;
        let o = JsonObject::new(out)
            .field("name", self.name)
            .field("cat", self.category())
            .field(
                "ph",
                match self.phase {
                    Phase::Instant => "i",
                    Phase::Complete(_) => "X",
                },
            )
            .field("ts", &ts_us)
            .field("pid", &0u32)
            .field("tid", &self.pe)
            .field("id", &self.id)
            .field("arg", &self.arg);
        match self.phase {
            Phase::Instant => o.field("s", "t").finish(),
            Phase::Complete(d) => {
                let dur_us = d as f64 / 1_000.0;
                o.field("dur", &dur_us).finish()
            }
        }
    }
}

/// Ring-buffered trace sink. Owned by the [`crate::Scheduler`]; reachable
/// from every emission site as `sched.trace`.
#[derive(Debug, Default)]
pub struct TraceSink {
    inner: Option<Box<Ring>>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    next_id: u64,
}

impl TraceSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable tracing with the given ring capacity (0 means
    /// [`DEFAULT_CAPACITY`]). Clears any previously recorded events.
    pub fn enable(&mut self, capacity: usize) {
        let capacity = if capacity == 0 {
            DEFAULT_CAPACITY
        } else {
            capacity
        };
        self.inner = Some(Box::new(Ring {
            events: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
            next_id: 1,
        }));
    }

    /// Whether events are currently being recorded. Hot paths branch on
    /// this before doing any argument computation.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Mint a fresh correlation id (deterministic: a per-sink counter).
    /// Returns 0 when disabled, which emission sites pass through.
    #[inline]
    pub fn mint_id(&mut self) -> u64 {
        if let Some(r) = &mut self.inner {
            let id = r.next_id;
            r.next_id += 1;
            return id;
        }
        0
    }

    /// Record a point event at `ts`.
    #[inline]
    pub fn instant(&mut self, name: &'static str, ts: Time, pe: u32, id: u64, arg: u64) {
        if let Some(r) = &mut self.inner {
            r.push(TraceEvent {
                name,
                phase: Phase::Instant,
                ts,
                pe,
                id,
                arg,
            });
        }
    }

    /// Record a complete span `[start, end]` (clamped to start if reversed).
    #[inline]
    pub fn span(&mut self, name: &'static str, start: Time, end: Time, pe: u32, id: u64, arg: u64) {
        if let Some(r) = &mut self.inner {
            r.push(TraceEvent {
                name,
                phase: Phase::Complete(end.saturating_sub(start)),
                ts: start,
                pe,
                id,
                arg,
            });
        }
    }

    /// Recorded events, oldest first. Empty when disabled.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.inner.iter().flat_map(|r| r.events.iter())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.events.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.dropped)
    }

    /// Forget recorded events (keeps the sink enabled and the id counter —
    /// clearing must not make later ids collide with earlier ones).
    pub fn clear(&mut self) {
        if let Some(r) = &mut self.inner {
            r.events.clear();
            r.dropped = 0;
        }
    }

    /// Serialize the buffer as a Chrome trace-event JSON document (the
    /// object-with-`traceEvents` flavour, plus drop accounting metadata).
    /// Byte-identical for identical buffers.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<TraceEvent> = self.events().copied().collect();
        let mut s = String::new();
        JsonObject::new(&mut s)
            .field("traceEvents", &events)
            .field("displayTimeUnit", "ns")
            .field("dropped", &self.dropped())
            .finish();
        s
    }
}

impl Ring {
    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = TraceSink::new();
        assert!(!t.enabled());
        t.instant("ucp.eager", 10, 0, 0, 64);
        t.span("fabric.link.busy", 5, 9, 1, 7, 64);
        assert_eq!(t.len(), 0);
        assert_eq!(t.mint_id(), 0);
        assert_eq!(
            t.to_chrome_json(),
            r#"{"traceEvents": [], "displayTimeUnit": "ns", "dropped": 0}"#
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = TraceSink::new();
        t.enable(4);
        for i in 0..10u64 {
            t.instant("x", i, 0, i, 0);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let ids: Vec<u64> = t.events().map(|e| e.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = TraceSink::new();
        t.enable(16);
        t.span("ucp.rndv.rts", 1_000, 3_500, 2, 42, 4096);
        t.instant("charm.sched.deliver", 4_000, 2, 42, 0);
        let j = t.to_chrome_json();
        assert!(j.contains(r#""name": "ucp.rndv.rts""#), "{j}");
        assert!(j.contains(r#""cat": "ucp""#), "{j}");
        assert!(j.contains(r#""ph": "X""#), "{j}");
        assert!(j.contains(r#""dur": 2.5"#), "{j}");
        assert!(j.contains(r#""ph": "i""#), "{j}");
        assert!(j.contains(r#""tid": 2"#), "{j}");
        // ts is microseconds: 1000 ns -> 1.0 us.
        assert!(j.contains(r#""ts": 1.0"#), "{j}");
    }

    #[test]
    fn mint_id_is_sequential_and_survives_clear() {
        let mut t = TraceSink::new();
        t.enable(8);
        assert_eq!(t.mint_id(), 1);
        assert_eq!(t.mint_id(), 2);
        t.instant("a", 0, 0, 0, 0);
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.mint_id(), 3);
    }

    #[test]
    fn identical_buffers_serialize_identically() {
        let build = || {
            let mut t = TraceSink::new();
            t.enable(64);
            for i in 0..20u64 {
                let id = t.mint_id();
                t.span(
                    "ucp.pipeline.chunk",
                    i * 100,
                    i * 100 + 37,
                    (i % 4) as u32,
                    id,
                    512,
                );
            }
            t.to_chrome_json()
        };
        assert_eq!(build(), build());
    }
}
