//! The event scheduler: virtual clock, event queue, and wait primitives.
//!
//! The scheduler is deliberately separate from the [`crate::Simulation`]
//! driver so that model code (event closures, world calls) can schedule
//! further events and fire triggers while the world is mutably borrowed
//! alongside it: every event closure receives `(&mut W, &mut Scheduler<W>)`.

#![allow(clippy::type_complexity)]

use std::collections::VecDeque;

pub use crate::queue::EventKey;
use crate::queue::{Due, EventQueue};
use crate::stats::{Counters, Metric};
use crate::time::{Duration, Time};
use crate::trace::TraceSink;

/// Identifier of a simulated process (index into the process table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) u32);

impl ProcId {
    /// Raw index of this process.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One-shot latch a process can block on. Created by
/// [`Scheduler::new_trigger`], fired at most once by [`Scheduler::fire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Trigger(pub(crate) u32);

impl Trigger {
    /// Construct a handle from a raw id. Only for tests and placeholder
    /// values; a handle not produced by [`Scheduler::new_trigger`] must not
    /// be waited on or fired.
    #[doc(hidden)]
    pub fn from_raw(id: u32) -> Self {
        Trigger(id)
    }
}

/// Reusable wakeup source with an epoch counter (condition-variable style).
///
/// A process snapshots the epoch, re-checks its predicate against world
/// state, and then waits for the epoch to move past the snapshot; every
/// [`Scheduler::notify`] advances the epoch and wakes all current waiters.
/// This is the lost-wakeup-free primitive PE schedulers idle on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Notify(pub(crate) u32);

impl Notify {
    /// See [`Trigger::from_raw`]; same caveats apply.
    #[doc(hidden)]
    pub fn from_raw(id: u32) -> Self {
        Notify(id)
    }
}

/// A scheduled event: either a model closure or a process wakeup.
pub(crate) enum EventPayload<W> {
    Closure(Box<dyn FnOnce(&mut W, &mut Scheduler<W>) + Send>),
    WakeProc(ProcId),
}

struct TriggerState {
    fired: bool,
    waiters: Vec<ProcId>,
}

struct NotifyState {
    epoch: u64,
    waiters: Vec<ProcId>,
}

/// Event scheduler and wait-primitive registry.
///
/// `W` is the *world* type: the single-threaded, mutable model state (GPUs,
/// network, communication library state). The scheduler never touches the
/// world itself; it only sequences closures that do.
pub struct Scheduler<W> {
    now: Time,
    seq: u64,
    events_executed: u64,
    queue: EventQueue<W>,
    triggers: Vec<TriggerState>,
    free_triggers: Vec<u32>,
    notifies: Vec<NotifyState>,
    /// Processes runnable at the current virtual time, in wake order.
    pub(crate) runnable: VecDeque<ProcId>,
    stopped: bool,
    /// Structured trace sink (see [`crate::trace`]): ring-buffered typed
    /// events stamped with virtual time, disabled (and free) by default.
    pub trace: TraceSink,
    /// The simulation's one counter namespace (see [`crate::stats`]):
    /// every layer counts here through [`Scheduler::count`],
    /// [`Scheduler::count_n`] and [`Scheduler::mark`]; read by name.
    pub metrics: Counters,
}

impl<W> Default for Scheduler<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Scheduler<W> {
    /// An empty scheduler at virtual time zero.
    pub fn new() -> Self {
        Scheduler {
            now: 0,
            seq: 0,
            events_executed: 0,
            queue: EventQueue::new(),
            triggers: Vec::new(),
            free_triggers: Vec::new(),
            notifies: Vec::new(),
            runnable: VecDeque::new(),
            stopped: false,
            trace: TraceSink::new(),
            metrics: Counters::default(),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Request that the simulation loop stop after the current dispatch.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped
    }

    pub(crate) fn clear_stopped(&mut self) {
        self.stopped = false;
    }

    /// True if structured tracing is enabled (lets hot paths skip building
    /// event arguments).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    /// Count one occurrence of `m`.
    #[inline]
    pub fn count(&mut self, m: Metric) {
        self.metrics.add(m, 1);
    }

    /// Add `v` to `m`; adding zero does not register the name.
    #[inline]
    pub fn count_n(&mut self, m: Metric, v: u64) {
        if v != 0 {
            self.metrics.add(m, v);
        }
    }

    /// A counted event: count `m` and, when tracing, record an instant of
    /// the same name at the current virtual time.
    #[inline]
    pub fn mark(&mut self, m: Metric, pe: u32, id: u64, arg: u64) {
        self.count(m);
        self.trace_instant(m.name, pe, id, arg);
    }

    /// Record a trace instant at the current virtual time.
    #[inline]
    pub fn trace_instant(&mut self, name: &'static str, pe: u32, id: u64, arg: u64) {
        self.trace.instant(name, self.now, pe, id, arg);
    }

    /// Record a trace span `[start, end]` (virtual times).
    #[inline]
    pub fn trace_span(
        &mut self,
        name: &'static str,
        start: Time,
        end: Time,
        pe: u32,
        id: u64,
        arg: u64,
    ) {
        self.trace.span(name, start, end, pe, id, arg);
    }

    /// Record a trace span starting at the current time and lasting `dur` —
    /// the shape protocol code uses when it schedules work `dur` ahead.
    #[inline]
    pub fn trace_span_in(&mut self, name: &'static str, dur: Duration, pe: u32, id: u64, arg: u64) {
        self.trace
            .span(name, self.now, self.now.saturating_add(dur), pe, id, arg);
    }

    /// The one way into the queue. The clamp to the present and the FIFO
    /// `seq` tie-break are the whole ordering contract.
    #[inline]
    fn push(&mut self, t: Time, payload: EventPayload<W>) -> EventKey {
        let time = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = self.queue.push(time, seq, payload);
        EventKey { time, seq, slot }
    }

    /// Schedule `f` to run on the world at absolute time `t` (clamped to the
    /// present: scheduling in the past runs at the current time).
    pub fn schedule_at(
        &mut self,
        t: Time,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
    ) {
        self.push(t, EventPayload::Closure(Box::new(f)));
    }

    /// Schedule `f` to run `dt` after the current time.
    pub fn schedule_in(
        &mut self,
        dt: Duration,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
    ) {
        self.schedule_at(self.now.saturating_add(dt), f);
    }

    /// Like [`Scheduler::schedule_at`], but returns a key that can later be
    /// passed to [`Scheduler::cancel`] to withdraw the event (timeouts,
    /// retransmission timers).
    pub fn schedule_cancellable_at(
        &mut self,
        t: Time,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
    ) -> EventKey {
        self.push(t, EventPayload::Closure(Box::new(f)))
    }

    /// Withdraw a previously scheduled cancellable event. Returns `true` if
    /// the event was still queued (and is now dropped), `false` if it
    /// already ran or was already cancelled.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        self.queue.cancel(key)
    }

    #[inline]
    pub(crate) fn schedule_wake(&mut self, t: Time, p: ProcId) {
        self.push(t, EventPayload::WakeProc(p));
    }

    /// Pop the minimum event only if it is due at or before `limit`; one
    /// queue probe for the whole dispatch decision.
    #[inline]
    pub(crate) fn pop_due(&mut self, limit: Time) -> Due<W> {
        let due = self.queue.pop_le(limit);
        if matches!(due, Due::Event(..)) {
            self.events_executed += 1;
        }
        due
    }

    pub(crate) fn set_now(&mut self, t: Time) {
        debug_assert!(t >= self.now, "virtual time must be monotone");
        self.now = t;
    }

    // ---- Triggers ----------------------------------------------------

    /// Create a new unfired one-shot trigger (recycled ids are reused).
    pub fn new_trigger(&mut self) -> Trigger {
        if let Some(id) = self.free_triggers.pop() {
            let st = &mut self.triggers[id as usize];
            st.fired = false;
            debug_assert!(st.waiters.is_empty());
            return Trigger(id);
        }
        let id = self.triggers.len() as u32;
        self.triggers.push(TriggerState {
            fired: false,
            waiters: Vec::new(),
        });
        Trigger(id)
    }

    /// Return a trigger's slot to the free list for reuse.
    ///
    /// The caller must be the sole remaining owner of the handle: recycling
    /// a trigger another component still waits on (or will wait on) aliases
    /// two logically distinct completions onto one slot.
    pub fn recycle_trigger(&mut self, t: Trigger) {
        let st = &mut self.triggers[t.0 as usize];
        assert!(
            st.waiters.is_empty(),
            "cannot recycle a trigger with parked waiters"
        );
        self.free_triggers.push(t.0);
    }

    /// Fire a trigger, waking every process waiting on it at the current
    /// virtual time. Firing an already-fired trigger is a no-op.
    pub fn fire(&mut self, t: Trigger) {
        let st = &mut self.triggers[t.0 as usize];
        if st.fired {
            return;
        }
        st.fired = true;
        // `drain` keeps the vector's capacity for the next wait.
        self.runnable.extend(st.waiters.drain(..));
    }

    /// Whether the trigger has fired.
    pub fn fired(&self, t: Trigger) -> bool {
        self.triggers[t.0 as usize].fired
    }

    pub(crate) fn add_trigger_waiter(&mut self, t: Trigger, p: ProcId) -> bool {
        let st = &mut self.triggers[t.0 as usize];
        if st.fired {
            false
        } else {
            st.waiters.push(p);
            true
        }
    }

    // ---- Notifies ----------------------------------------------------

    /// Create a new notification source (epoch 0).
    pub fn new_notify(&mut self) -> Notify {
        let id = self.notifies.len() as u32;
        self.notifies.push(NotifyState {
            epoch: 0,
            waiters: Vec::new(),
        });
        Notify(id)
    }

    /// Advance the notify epoch and wake all current waiters.
    pub fn notify(&mut self, n: Notify) {
        let st = &mut self.notifies[n.0 as usize];
        st.epoch += 1;
        self.runnable.extend(st.waiters.drain(..));
    }

    /// Current epoch of a notify source.
    pub fn notify_epoch(&self, n: Notify) -> u64 {
        self.notifies[n.0 as usize].epoch
    }

    /// Returns true if the process was parked (epoch unchanged), false if the
    /// epoch already moved past `seen` (process stays runnable).
    pub(crate) fn add_notify_waiter(&mut self, n: Notify, seen: u64, p: ProcId) -> bool {
        let st = &mut self.notifies[n.0 as usize];
        if st.epoch != seen {
            false
        } else {
            st.waiters.push(p);
            true
        }
    }

    /// Number of events currently queued, cancelled ones excluded (for
    /// tests/diagnostics).
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S = Scheduler<Vec<u32>>;

    /// Manual mini-loop (the real one lives in `Simulation`).
    fn drain(s: &mut S, world: &mut Vec<u32>) {
        while let Due::Event(t, payload) = s.pop_due(Time::MAX) {
            s.set_now(t);
            match payload {
                EventPayload::Closure(f) => f(world, s),
                EventPayload::WakeProc(_) => unreachable!(),
            }
        }
    }

    #[test]
    fn event_order_is_time_then_fifo() {
        let mut s = S::new();
        s.schedule_at(10, |w, _| w.push(1));
        s.schedule_at(5, |w, _| w.push(2));
        s.schedule_at(10, |w, _| w.push(3));
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![2, 1, 3]);
        assert_eq!(s.now(), 10);
        assert_eq!(s.events_executed(), 3);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut s = S::new();
        s.set_now(100);
        s.schedule_at(50, |w, _| w.push(1));
        assert!(matches!(s.pop_due(Time::MAX), Due::Event(100, _)));
    }

    #[test]
    fn cancellable_events_cancel_once_and_skip_execution() {
        let mut s = S::new();
        s.schedule_at(5, |w, _| w.push(1));
        let k = s.schedule_cancellable_at(6, |w, _| w.push(2));
        let k2 = s.schedule_cancellable_at(7, |w, _| w.push(3));
        assert!(s.cancel(k));
        assert!(!s.cancel(k), "second cancel is a no-op");
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![1, 3], "cancelled event must not run");
        assert!(!s.cancel(k2), "cancel after execution reports false");
    }

    #[test]
    fn pop_due_respects_the_limit() {
        let mut s = S::new();
        s.schedule_at(5, |w, _| w.push(1));
        s.schedule_at(20, |w, _| w.push(2));
        match s.pop_due(10) {
            Due::Event(t, _) => assert_eq!(t, 5),
            _ => panic!("event at 5 is due by 10"),
        }
        match s.pop_due(10) {
            Due::Later(t) => assert_eq!(t, 20),
            _ => panic!("event at 20 is beyond 10"),
        }
        match s.pop_due(20) {
            Due::Event(t, _) => assert_eq!(t, 20),
            _ => panic!("event at 20 is due by 20"),
        }
        assert!(matches!(s.pop_due(u64::MAX), Due::Empty));
    }

    #[test]
    fn trigger_fire_is_idempotent_and_wakes_waiters() {
        let mut s = S::new();
        let t = s.new_trigger();
        assert!(!s.fired(t));
        assert!(s.add_trigger_waiter(t, ProcId(7)));
        s.fire(t);
        assert!(s.fired(t));
        assert_eq!(s.runnable.pop_front(), Some(ProcId(7)));
        s.fire(t); // no-op
        assert!(s.runnable.is_empty());
        // Waiting on a fired trigger does not park.
        assert!(!s.add_trigger_waiter(t, ProcId(8)));
    }

    #[test]
    fn notify_epoch_prevents_lost_wakeups() {
        let mut s = S::new();
        let n = s.new_notify();
        let seen = s.notify_epoch(n);
        s.notify(n); // epoch moves before the waiter parks
        assert!(!s.add_notify_waiter(n, seen, ProcId(1)), "must not park");
        let seen2 = s.notify_epoch(n);
        assert!(s.add_notify_waiter(n, seen2, ProcId(2)));
        s.notify(n);
        assert_eq!(s.runnable.pop_front(), Some(ProcId(2)));
    }

    #[test]
    fn mark_counts_always_and_traces_when_enabled() {
        const HELD: Metric = Metric::counter("test.held");
        const NEVER: Metric = Metric::counter("test.never");
        let mut s = S::new();
        s.mark(HELD, 1, 2, 3);
        assert_eq!(s.metrics.get("test.held"), 1);
        assert_eq!(s.trace.len(), 0, "tracing is off");

        s.trace.enable(16);
        s.set_now(40);
        s.mark(HELD, 1, 2, 3);
        assert_eq!(s.metrics.get("test.held"), 2);
        let ev: Vec<_> = s.trace.events().collect();
        assert_eq!(ev.len(), 1, "one instant per traced mark");
        let e = ev[0];
        assert_eq!((e.name, e.ts, e.dur()), ("test.held", 40, 0));
        assert_eq!((e.pe, e.id, e.arg), (1, 2, 3));

        s.count_n(NEVER, 0);
        s.count_n(HELD, 5);
        let all: Vec<_> = s.metrics.iter().collect();
        assert_eq!(all, [("test.held", 7)], "adding zero registers nothing");
    }

    #[test]
    fn nested_scheduling_from_events() {
        let mut s = S::new();
        s.schedule_at(1, |w, s| {
            w.push(1);
            s.schedule_in(4, |w, _| w.push(2));
        });
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![1, 2]);
        assert_eq!(s.now(), 5);
    }
}
