//! The simulation driver and the execution core.
//!
//! All mutable run state — the world, the scheduler, and the process table
//! with every process's stack — lives in one heap-allocated [`Core`] that
//! travels between execution contexts as a baton (see [`crate::process`]
//! for the full model). The [`Simulation`] handle owns the core between
//! runs; during a run the core moves to whichever context is executing —
//! the driver's own stack or a process coroutine, all on the thread that
//! called [`Simulation::run_until`] — and the call returns when the run
//! ends and the last context switches back with the core.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::coro::{self, StackPtr};
use crate::process::{Body, ProcCtx, ProcSlot, ProcState};
use crate::queue::Due;
use crate::sched::{EventPayload, ProcId, Scheduler};
use crate::stats::Counters;
use crate::time::Time;

/// Why [`Simulation::run_until`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Event queue drained and every process finished.
    Completed,
    /// The time limit was reached with work still pending.
    TimeLimit,
    /// [`Scheduler::stop`] was called.
    Stopped,
    /// No events pending but some processes are still parked: a deadlock.
    /// Contains `(process name, what it is blocked on)` pairs.
    Deadlock(Vec<(String, String)>),
}

/// Configuration for the simulation driver.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Stack size of each simulated process, rounded up to whole pages;
    /// one guard page sits below it, so an overrun faults. Simulated PEs
    /// are shallow; the default keeps 1000+ PE simulations cheap.
    pub stack_size: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            stack_size: 512 * 1024,
        }
    }
}

/// The execution core: everything a running simulation mutates, boxed so it
/// can move between contexts as a single baton. Exactly one context (the
/// driver or one process) owns it at any moment, which is what makes world
/// access direct and data-race free without any locking — and, because the
/// core owns every process stack, it is only ever dropped by the driver.
pub(crate) struct Core<W> {
    pub world: W,
    pub sched: Scheduler<W>,
    pub procs: Vec<ProcSlot<W>>,
    pub config: SimConfig,
    /// Time limit of the run in progress (set by [`Simulation::run_until`]).
    pub limit: Time,
    /// Where the driver is suspended while a process holds the baton.
    pub driver_sp: StackPtr,
    /// Why the run ended: set by the process that takes the baton home,
    /// taken by the driver.
    pub verdict: Option<VerdictKind>,
    /// Set by `Simulation::drop`: a process resumed with this set unwinds
    /// instead of continuing.
    pub shutdown: bool,
}

/// How a run ended, as reported to the driver.
pub(crate) enum VerdictKind {
    Completed,
    TimeLimit,
    Stopped,
    /// Queue drained with unfinished processes; the driver rebuilds the
    /// blocked report from the returned core.
    Deadlock,
    /// A process body panicked.
    ProcPanicked {
        name: String,
        at: Time,
        msg: String,
    },
    /// An event closure (or anything else inside [`dispatch`]) panicked;
    /// the driver resumes the unwind with the original payload.
    EventPanicked(Box<dyn std::any::Any + Send>),
}

/// What [`dispatch`] decided. The baton always comes back to the caller,
/// beside this.
pub(crate) enum Dispatch {
    /// `me` was the next runnable process: the caller keeps the baton and
    /// resumes immediately (zero context switches).
    Resumed,
    /// This other process runs next: the caller switches to it.
    Switch(ProcId),
    /// The run ended while the caller held the baton.
    Ended(VerdictKind),
}

/// The dispatch loop, identical regardless of which context runs it: drain
/// runnable processes first (they may create same-instant work), then pop
/// timed events in `(time, seq)` order. Dispatch *order* — and therefore
/// determinism — does not depend on whose stack happens to be turning the
/// crank.
///
/// `me` is `Some(id)` when a mid-yield process is dispatching and should
/// take the baton back the moment its own wakeup reaches the front;
/// `None` when the driver or a finished process is dispatching.
///
/// Never unwinds: the core owns the stack a dispatching process is running
/// on, so a panicking event closure must not be allowed to drop it here. It
/// is caught and ends the run with the core intact.
pub(crate) fn dispatch<W: Send + 'static>(
    mut core: Box<Core<W>>,
    me: Option<ProcId>,
) -> (Dispatch, Box<Core<W>>) {
    let step = catch_unwind(AssertUnwindSafe(|| dispatch_loop(&mut core, me)))
        .unwrap_or_else(|payload| Dispatch::Ended(VerdictKind::EventPanicked(payload)));
    (step, core)
}

fn dispatch_loop<W: Send + 'static>(core: &mut Core<W>, me: Option<ProcId>) -> Dispatch {
    loop {
        if core.sched.is_stopped() {
            return Dispatch::Ended(VerdictKind::Stopped);
        }
        if let Some(q) = core.sched.runnable.pop_front() {
            if Some(q) == me {
                return Dispatch::Resumed;
            }
            if core.procs[q.index()].state == ProcState::Finished {
                continue;
            }
            core.procs[q.index()].state = ProcState::Active;
            return Dispatch::Switch(q);
        }
        match core.sched.pop_due(core.limit) {
            Due::Empty => {
                return Dispatch::Ended(if core.all_finished() {
                    VerdictKind::Completed
                } else {
                    VerdictKind::Deadlock
                });
            }
            Due::Later(_) => return Dispatch::Ended(VerdictKind::TimeLimit),
            Due::Event(time, payload) => {
                core.sched.set_now(time);
                match payload {
                    EventPayload::Closure(f) => f(&mut core.world, &mut core.sched),
                    EventPayload::WakeProc(p) => {
                        // A sleeping process may have been woken earlier
                        // by a trigger only if it yielded again since;
                        // sleeps are exact, so just run it.
                        core.sched.runnable.push_back(p);
                    }
                }
            }
        }
    }
}

/// One baton hand-off: suspend context `me`, resume context `to` with the
/// core as the payload (`None` names the driver on either side), and return
/// the core that the next switch back to `me` carries.
///
/// The OS thread underneath may differ before and after (see
/// [`crate::coro`]). Kept out of line so that point is one opaque call;
/// neither this function nor its callers in this crate touch thread-local
/// state around it, and process bodies must not keep any across a yield.
///
/// # Safety
///
/// The caller must be running as context `me` (on that process's stack, or
/// as the driver inside `run_until`/`drop`) and `to != me`. `to` must be
/// suspended: the driver blocked in an earlier `hand_off`, or a process
/// that is unfinished and either never started or itself parked in
/// `hand_off`.
#[inline(never)]
pub(crate) unsafe fn hand_off<W>(
    core: Box<Core<W>>,
    me: Option<ProcId>,
    to: Option<ProcId>,
) -> Box<Core<W>> {
    fn sp_slot<W>(core: &mut Core<W>, who: Option<ProcId>) -> &mut StackPtr {
        match who {
            Some(p) => &mut core.procs[p.index()].sp,
            None => &mut core.driver_sp,
        }
    }
    let raw = Box::into_raw(core);
    // SAFETY: `raw` is the baton we own, so both slot accesses are to live
    // memory nobody else can touch; `save` stays valid for `transfer`'s one
    // store because the payload is only unboxed on the far side, after it.
    // `to`'s slot holds a resumable context by the caller's contract — the
    // frame `Stack::prepare` built, or the `save` of the `hand_off` that
    // suspended it — and its stack is owned by the core (the driver's by
    // the thread blocked in `run_until`), so it is still mapped.
    let back = unsafe {
        let to_sp = *sp_slot(&mut *raw, to);
        debug_assert!(!to_sp.is_null(), "switch to a context that never ran");
        let save: *mut StackPtr = sp_slot(&mut *raw, me);
        coro::transfer(save, to_sp, raw.cast())
    };
    // SAFETY: every switch into a context of this simulation is made here,
    // with `Box::<Core<W>>::into_raw` as the payload.
    unsafe { Box::from_raw(back.cast()) }
}

impl<W: Send + 'static> Core<W> {
    pub(crate) fn add_process(&mut self, name: String, start: Time, body: Body<W>) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        self.procs
            .push(ProcSlot::new(id, name, self.config.stack_size, body));
        self.sched.schedule_wake(start, id);
        id
    }

    pub(crate) fn all_finished(&self) -> bool {
        self.procs.iter().all(|p| p.state == ProcState::Finished)
    }

    fn blocked_report(&self) -> Vec<(String, String)> {
        self.procs
            .iter()
            .filter_map(|p| Some((p.name.clone(), p.state.describe()?)))
            .collect()
    }
}

/// A deterministic discrete-event simulation over world state `W`.
///
/// ```
/// use rucx_sim::Simulation;
///
/// let mut sim = Simulation::new(0u64);
/// sim.scheduler().schedule_at(100, |w, _| *w += 1);
/// sim.spawn("worker", 0, |ctx| {
///     ctx.advance(50);
///     ctx.with_world(|w, _| *w += 10);
/// });
/// let outcome = sim.run();
/// assert_eq!(outcome, rucx_sim::RunOutcome::Completed);
/// assert_eq!(*sim.world(), 11);
/// assert_eq!(sim.scheduler().now(), 100);
/// ```
///
/// `Simulation<W>` is `Send`: it may be built on one thread and advanced by
/// `run_until` from others, one at a time. Its processes move with it.
pub struct Simulation<W> {
    /// `None` only inside `run_until` and `drop`, while the baton is out
    /// among the contexts; every way a run can end brings it back.
    core: Option<Box<Core<W>>>,
}

impl<W: Send + 'static> Simulation<W> {
    /// Create a simulation around an initial world.
    pub fn new(world: W) -> Self {
        Self::with_config(world, SimConfig::default())
    }

    /// Create a simulation with an explicit driver configuration.
    pub fn with_config(world: W, config: SimConfig) -> Self {
        Simulation {
            core: Some(Box::new(Core {
                world,
                sched: Scheduler::new(),
                procs: Vec::new(),
                config,
                limit: Time::MAX,
                driver_sp: StackPtr::null(),
                verdict: None,
                shutdown: false,
            })),
        }
    }

    fn core(&self) -> &Core<W> {
        self.core.as_ref().expect("the baton is home between runs")
    }

    fn core_mut(&mut self) -> &mut Core<W> {
        self.core.as_mut().expect("the baton is home between runs")
    }

    /// Immutable access to the world (between runs).
    pub fn world(&self) -> &W {
        &self.core().world
    }

    /// Mutable access to the world (between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.core_mut().world
    }

    /// Access the scheduler (to create triggers, schedule setup events…).
    pub fn scheduler(&mut self) -> &mut Scheduler<W> {
        &mut self.core_mut().sched
    }

    /// Immutable access to the scheduler (between runs).
    pub fn scheduler_ref(&self) -> &Scheduler<W> {
        &self.core().sched
    }

    /// The simulation's counters (between runs): `sim.metrics().get(name)`.
    pub fn metrics(&self) -> &Counters {
        &self.core().sched.metrics
    }

    /// Spawn a simulated process whose body starts at virtual time `start`.
    ///
    /// The process gets a stack of [`SimConfig::stack_size`] bytes (reused
    /// from an earlier simulation when one is idle) that returns to the
    /// free list when the simulation is dropped.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        start: Time,
        body: impl FnOnce(&mut ProcCtx<W>) + Send + 'static,
    ) -> ProcId {
        self.core_mut()
            .add_process(name.into(), start, Box::new(body))
    }

    /// Run until the event queue drains, a deadlock is detected, `stop()` is
    /// called, or virtual time would exceed `limit`.
    ///
    /// # Panics
    ///
    /// If a process body panics (with the process name, the virtual time
    /// and the message) or an event closure does (with its own payload).
    /// The simulation stays intact either way: the world can still be read
    /// and the handle dropped.
    pub fn run_until(&mut self, limit: Time) -> RunOutcome {
        let mut core = self.core.take().expect("the baton is home between runs");
        core.sched.clear_stopped();
        core.limit = limit;
        let (step, mut core) = dispatch(core, None);
        let kind = match step {
            Dispatch::Ended(kind) => kind,
            Dispatch::Switch(q) => {
                // SAFETY: we are the driver, `q` is an unfinished process
                // fresh off the runnable queue, and every process is
                // suspended whenever the driver runs.
                core = unsafe { hand_off(core, None, Some(q)) };
                core.verdict
                    .take()
                    .expect("baton came home without a verdict")
            }
            Dispatch::Resumed => unreachable!("driver resumed as a process"),
        };
        let core = self.core.insert(core);
        match kind {
            VerdictKind::Completed => RunOutcome::Completed,
            VerdictKind::TimeLimit => RunOutcome::TimeLimit,
            VerdictKind::Stopped => RunOutcome::Stopped,
            VerdictKind::Deadlock => RunOutcome::Deadlock(core.blocked_report()),
            VerdictKind::ProcPanicked { name, at, msg } => {
                panic!("simulated process '{name}' panicked at t={at}: {msg}")
            }
            VerdictKind::EventPanicked(payload) => resume_unwind(payload),
        }
    }

    /// Run to completion (no time limit).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(Time::MAX)
    }

    /// Run `f` with simultaneous access to the world and the scheduler
    /// (between runs). Virtual time does not advance.
    pub fn with_parts<R>(&mut self, f: impl FnOnce(&mut W, &mut Scheduler<W>) -> R) -> R {
        let core = self.core_mut();
        f(&mut core.world, &mut core.sched)
    }
}

impl<W> Drop for Simulation<W> {
    /// Unwind every suspended process so the destructors of whatever is
    /// live on its stack run (exactly once), then let the core — world,
    /// queued closures, never-started bodies, stacks — drop normally. See
    /// the teardown section of [`crate::process`].
    fn drop(&mut self) {
        let Some(mut core) = self.core.take() else {
            return;
        };
        core.shutdown = true;
        for i in 0..core.procs.len() {
            if core.procs[i].is_suspended() {
                // SAFETY: we are the driver; process `i` is suspended in
                // `hand_off` (it has started and has not finished), like
                // every process while the driver runs.
                core = unsafe { hand_off(core, None, Some(ProcId(i as u32))) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_completes() {
        let mut sim = Simulation::new(());
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.scheduler().now(), 0);
    }

    #[test]
    fn events_advance_time() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.scheduler().schedule_at(10, |w, s| w.push(s.now()));
        sim.scheduler().schedule_at(30, |w, s| w.push(s.now()));
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world(), &vec![10, 30]);
    }

    #[test]
    fn process_advance_and_world_calls() {
        let mut sim = Simulation::new(0u64);
        sim.spawn("p", 5, |ctx| {
            assert_eq!(ctx.now(), 5);
            ctx.advance(20);
            assert_eq!(ctx.now(), 25);
            let doubled = ctx.with_world(|w, _| {
                *w = 21;
                *w * 2
            });
            assert_eq!(doubled, 42);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*sim.world(), 21);
        assert_eq!(sim.scheduler().now(), 25);
    }

    #[test]
    fn trigger_handshake_between_processes() {
        let mut sim = Simulation::new(Vec::<&'static str>::new());
        let t = sim.scheduler().new_trigger();
        sim.spawn("waiter", 0, move |ctx| {
            ctx.wait(t);
            let now = ctx.now();
            ctx.with_world(move |w, _| w.push("woken"));
            assert_eq!(now, 40);
        });
        sim.spawn("firer", 0, move |ctx| {
            ctx.advance(40);
            ctx.with_world(move |w, s| {
                w.push("firing");
                s.fire(t);
            });
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world(), &vec!["firing", "woken"]);
    }

    #[test]
    fn wait_on_fired_trigger_returns_immediately() {
        let mut sim = Simulation::new(());
        let t = sim.scheduler().new_trigger();
        sim.scheduler().fire(t);
        sim.spawn("p", 0, move |ctx| {
            ctx.wait(t);
            assert_eq!(ctx.now(), 0);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn deadlock_detected_and_reported() {
        let mut sim = Simulation::new(());
        let t = sim.scheduler().new_trigger();
        sim.spawn("stuck", 0, move |ctx| {
            ctx.wait(t); // never fired
        });
        match sim.run() {
            RunOutcome::Deadlock(blocked) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, "stuck");
                assert!(blocked[0].1.contains("trigger"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_stops_early() {
        let mut sim = Simulation::new(0u32);
        sim.scheduler().schedule_at(1_000, |w, _| *w += 1);
        assert_eq!(sim.run_until(500), RunOutcome::TimeLimit);
        assert_eq!(*sim.world(), 0);
        // Resuming past the limit executes the event.
        assert_eq!(sim.run_until(2_000), RunOutcome::Completed);
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn time_limit_resumes_parked_process() {
        // A process parked mid-advance across a TimeLimit verdict must be
        // resumable by a later run (the baton finds its way back to it).
        let mut sim = Simulation::new(0u32);
        sim.spawn("sleeper", 0, |ctx| {
            ctx.advance(1_000);
            ctx.with_world(|w, _| *w += 1);
        });
        assert_eq!(sim.run_until(500), RunOutcome::TimeLimit);
        assert_eq!(*sim.world(), 0);
        assert_eq!(sim.run_until(2_000), RunOutcome::Completed);
        assert_eq!(*sim.world(), 1);
        assert_eq!(sim.scheduler().now(), 1_000);
    }

    // The advance fast path (`Scheduler::advance_inline`): one test per
    // condition under which a wake must still go through the queue, and
    // one for the bookkeeping an elided wake keeps.

    #[test]
    fn advance_fast_path_lets_an_event_at_the_same_time_run_first() {
        let mut sim = Simulation::new(Vec::<&'static str>::new());
        sim.spawn("p", 0, |ctx| {
            ctx.with_world(|_, s| s.schedule_at(10, |w, _| w.push("event")));
            ctx.advance(10);
            ctx.with_world(|w, _| w.push("process"));
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world(), &vec!["event", "process"]);
    }

    #[test]
    fn advance_fast_path_lets_a_runnable_process_run_first() {
        let mut sim = Simulation::new(Vec::<&'static str>::new());
        let t = sim.scheduler().new_trigger();
        sim.spawn("waiter", 0, move |ctx| {
            ctx.wait(t);
            ctx.with_world(|w, _| w.push("waiter"));
        });
        sim.spawn("firer", 0, move |ctx| {
            ctx.with_world(|_, s| s.fire(t));
            ctx.advance(10);
            ctx.with_world(|w, _| w.push("firer"));
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world(), &vec!["waiter", "firer"]);
    }

    #[test]
    fn advance_fast_path_respects_the_time_limit() {
        let mut sim = Simulation::new(0u32);
        sim.spawn("p", 0, |ctx| {
            ctx.advance(1_000);
            ctx.with_world(|w, _| *w += 1);
        });
        assert_eq!(sim.run_until(500), RunOutcome::TimeLimit);
        assert_eq!((*sim.world(), sim.scheduler().now()), (0, 0));
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!((*sim.world(), sim.scheduler().now()), (1, 1_000));
    }

    #[test]
    fn advance_fast_path_respects_a_pending_stop() {
        let mut sim = Simulation::new(0u32);
        sim.spawn("p", 0, |ctx| {
            ctx.with_world(|_, s| s.stop());
            ctx.advance(10);
            ctx.with_world(|w, _| *w += 1);
        });
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(*sim.world(), 0);
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!((*sim.world(), sim.scheduler().now()), (1, 10));
    }

    #[test]
    fn elided_advance_consumes_a_seq_and_counts_an_event() {
        let mut sim = Simulation::new(());
        sim.spawn("p", 0, |ctx| {
            let seq = |ctx: &mut ProcCtx<()>| {
                ctx.with_world(|_, s| s.schedule_cancellable_at(1_000, |_, _| {}).seq)
            };
            let before = seq(ctx);
            // The only queued event lies after 10: this wake is elided.
            ctx.advance(10);
            assert_eq!(seq(ctx), before + 2, "the elided wake took one seq");
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        // The start wake, the elided wake and the two events at 1 000.
        assert_eq!(sim.scheduler().events_executed(), 4);
    }

    #[test]
    fn stop_from_event() {
        let mut sim = Simulation::new(());
        sim.scheduler().schedule_at(10, |_, s| s.stop());
        sim.scheduler()
            .schedule_at(20, |_, _| panic!("must not run"));
        assert_eq!(sim.run(), RunOutcome::Stopped);
    }

    #[test]
    #[should_panic(expected = "panicked at t=0: boom")]
    fn process_panic_propagates() {
        let mut sim = Simulation::new(());
        sim.spawn("bad", 0, |_| panic!("boom"));
        let _ = sim.run();
    }

    #[test]
    fn process_panic_reports_name_time_and_payload() {
        // A panicking process must fail the simulation with the process
        // name, the virtual time of the panic, and the panic payload — and
        // its stack must come back for reuse. No other test uses this stack
        // size, so its size class's accounting is ours even with tests
        // running in parallel.
        let config = SimConfig {
            stack_size: 196 * 1024,
        };
        let mut sim = Simulation::with_config((), config.clone());
        sim.spawn("victim", 0, |ctx| {
            ctx.advance(1234);
            panic!("deliberate failure x={}", 42);
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("simulation must fail");
        let msg = err
            .downcast_ref::<String>()
            .expect("driver panic carries a String");
        assert!(msg.contains("'victim'"), "missing process name: {msg}");
        assert!(msg.contains("t=1234"), "missing virtual time: {msg}");
        assert!(
            msg.contains("deliberate failure x=42"),
            "missing panic payload: {msg}"
        );
        drop(sim);
        // The stack that hosted the panicking process is back on the free
        // list.
        let stats = coro::stack_stats(config.stack_size);
        assert_eq!((stats.mapped, stats.free), (1, 1), "{stats:?}");
        // And it is reusable: a fresh simulation of the same stack size
        // runs on it instead of mapping another.
        let mut sim = Simulation::with_config(0u32, config.clone());
        sim.spawn("healthy", 0, |ctx| ctx.with_world(|w, _| *w = 7));
        let stats = coro::stack_stats(config.stack_size);
        assert_eq!((stats.mapped, stats.free), (1, 0), "{stats:?}");
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*sim.world(), 7);
    }

    #[test]
    fn with_world_ref_reads_without_blocking_semantics_change() {
        let mut sim = Simulation::new(41u64);
        sim.spawn("reader", 3, |ctx| {
            // Borrowed (non-'static) captures are fine on the fast path.
            let local = [1u64, 2, 3];
            let sum: u64 = ctx.with_world_ref(|w, s| *w + s.now() + local.iter().sum::<u64>());
            assert_eq!(sum, 41 + 3 + 6);
            ctx.advance(7);
            let now = ctx.with_world_ref(|_, s| s.now());
            assert_eq!(now, 10);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn notify_wakes_all_waiters_in_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let n = sim.scheduler().new_notify();
        for i in 0..3u32 {
            sim.spawn(format!("w{i}"), 0, move |ctx| {
                let seen = ctx.with_world_ref(|_, s| s.notify_epoch(n));
                ctx.wait_notify(n, seen);
                ctx.with_world(move |w, _| w.push(i));
            });
        }
        sim.spawn("notifier", 0, move |ctx| {
            ctx.advance(100);
            ctx.with_world(move |_, s| s.notify(n));
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world(), &vec![0, 1, 2]);
    }

    #[test]
    fn wait_until_rechecks_predicate() {
        let mut sim = Simulation::new(0u32);
        let n = sim.scheduler().new_notify();
        sim.spawn("consumer", 0, move |ctx| {
            ctx.wait_until(n, |w, _| *w >= 3);
            assert_eq!(ctx.now(), 30);
        });
        sim.spawn("producer", 0, move |ctx| {
            for _ in 0..3 {
                ctx.advance(10);
                ctx.with_world(move |w, s| {
                    *w += 1;
                    s.notify(n);
                });
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        // Two identical simulations must produce identical event traces.
        fn build_and_run() -> Vec<(u64, u32)> {
            let mut sim = Simulation::new(Vec::<(u64, u32)>::new());
            let n = sim.scheduler().new_notify();
            for i in 0..8u32 {
                sim.spawn(format!("p{i}"), (i as u64) * 3 % 5, move |ctx| {
                    for k in 0..4u64 {
                        ctx.advance((i as u64 * 7 + k * 13) % 17 + 1);
                        let now = ctx.now();
                        ctx.with_world(move |w, s| {
                            w.push((now, i));
                            s.notify(n);
                        });
                    }
                });
            }
            sim.run();
            sim.world().clone()
        }
        assert_eq!(build_and_run(), build_and_run());
    }
}
