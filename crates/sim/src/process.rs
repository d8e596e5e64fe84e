//! Simulated processes as stackful coroutines, and the execution baton.
//!
//! Each simulated process (one per PE in the runtime layers above) is a
//! coroutine on its own [`crate::coro::Stack`], and every coroutine of a
//! simulation runs on the OS thread that called
//! [`Simulation::run_until`](crate::Simulation::run_until). Processes
//! execute strictly one at a time: a single *baton* — the boxed
//! [`Core`](crate::sim::Core) holding the world, the scheduler, and the
//! process table — is owned by exactly one context at any moment, and only
//! the context holding it may run. This gives process code natural
//! *blocking* semantics (`MPI_Recv` can simply not return until virtual
//! time has advanced to the message arrival) while keeping the whole
//! simulation deterministic and data-race free, and it keeps every world
//! access safe code: it goes through a `Box` the running context owns,
//! never through a pointer shared between stacks. The only `unsafe` here is
//! the switch itself ([`hand_off`]'s two callers and the first unboxing in
//! `proc_entry`).
//!
//! A context that holds the baton dispatches events **inline**. When a
//! process calls [`ProcCtx::advance`] and the next relevant event is its
//! own wakeup (the overwhelmingly common case), control never leaves its
//! stack — no switch, no allocation — and when nothing at all could run
//! before that wakeup it is not even queued (`Scheduler::advance_inline`,
//! DESIGN §11). Only when a *different* process must
//! run does [`dispatch`] return [`Dispatch::Switch`], and the caller makes
//! one user-level context switch ([`hand_off`]) with the baton as the
//! payload. A run that ends while a process is dispatching switches back
//! to the driver's stack the same way, the verdict riding in the core.
//!
//! ## Teardown
//!
//! [`Simulation`](crate::Simulation)'s `Drop` runs on the driver's stack
//! and owns the core, which owns every stack. A process that never started
//! is just a boxed closure in its slot and is dropped as one. A suspended
//! process is resumed once more with [`Core::shutdown`] set; it unwinds
//! with [`SimShutdown`] (through `resume_unwind`, so the panic hook stays
//! silent), which runs the destructors of everything live on its stack, is
//! caught in [`run_body`], and switches back. Nothing here depends on the
//! dropping thread's own state, so it also works while that thread is
//! itself unwinding.

#![allow(clippy::type_complexity)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::coro::{Stack, StackPtr};
use crate::sched::{Notify, ProcId, Scheduler, Trigger};
use crate::sim::{dispatch, hand_off, Core, Dispatch, VerdictKind};
use crate::time::{Duration, Time};

/// A process body as stored until its first wakeup.
pub(crate) type Body<W> = Box<dyn FnOnce(&mut ProcCtx<W>) + Send + 'static>;

/// How a process yields the baton back to the dispatch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum YieldKind {
    /// Wake me at this absolute virtual time.
    AdvanceTo(Time),
    /// Park me until the trigger fires.
    WaitTrigger(Trigger),
    /// Park me until the notify epoch moves past `seen`.
    WaitNotify(Notify, u64),
    /// Put me at the back of the runnable queue (same virtual time).
    YieldNow,
}

/// Marker unwound through a suspended process body when its simulation is
/// dropped; [`run_body`] swallows it.
pub(crate) struct SimShutdown;

/// Handle a process body uses to interact with the simulation.
///
/// Obtained as the argument to the closure passed to
/// [`crate::Simulation::spawn`]. All methods may suspend the process while
/// other parts of the simulation run; in virtual-time terms,
/// [`ProcCtx::with_world`] is instantaneous while [`ProcCtx::advance`] and
/// the wait methods let virtual time pass.
///
/// A suspended process may be resumed on a different OS thread than the one
/// it last ran on, so a body must not keep state in thread-local storage (or
/// hold an OS mutex guard) across any of these calls.
pub struct ProcCtx<W> {
    pub(crate) id: ProcId,
    pub(crate) now: Time,
    /// The baton. `Some` exactly while this process is the running one.
    pub(crate) core: Option<Box<Core<W>>>,
}

impl<W: Send + 'static> ProcCtx<W> {
    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// This process's name (for traces and deadlock reports).
    pub fn name(&self) -> &str {
        let core = self.core.as_ref().expect("name read while parked");
        &core.procs[self.id.index()].name
    }

    /// Current virtual time as of the last resume.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Give the baton to `to` (`None`: the driver) and suspend until it
    /// comes back; unwinds with [`SimShutdown`] if it comes back only
    /// because the simulation is being dropped.
    fn park(&mut self, to: Option<ProcId>, core: Box<Core<W>>) -> Box<Core<W>> {
        // SAFETY: we are process `self.id`, running on its stack, and own
        // the baton; `to` was just popped off the runnable queue by
        // `dispatch` (a started-or-startable, unfinished process other than
        // us) or is the driver, which is suspended in `run_until`.
        let core = unsafe { hand_off(core, Some(self.id), to) };
        if core.shutdown {
            // Keep the baton where `run_body` finds it after the unwind.
            self.core = Some(core);
            resume_unwind(Box::new(SimShutdown));
        }
        core
    }

    /// Register the wakeup condition for `kind`, then dispatch inline until
    /// this process is woken again (possibly without ever leaving its
    /// stack).
    fn yield_and_wait(&mut self, kind: YieldKind) {
        let mut core = self.core.take().expect("yield while parked");
        let id = self.id;
        match kind {
            YieldKind::AdvanceTo(t) => {
                core.procs[id.index()].state = ProcState::Sleep(t);
                if core.sched.advance_inline(t, core.limit) {
                    // Nothing could run before our wake: skip its round
                    // trip through the queue.
                    self.now = t;
                    self.core = Some(core);
                    return;
                }
                core.sched.schedule_wake(t, id);
            }
            YieldKind::YieldNow => {
                core.procs[id.index()].state = ProcState::Active;
                core.sched.runnable.push_back(id);
            }
            YieldKind::WaitTrigger(t) => {
                if core.sched.add_trigger_waiter(t, id) {
                    core.procs[id.index()].state = ProcState::OnTrigger(t.0);
                } else {
                    core.sched.runnable.push_back(id);
                }
            }
            YieldKind::WaitNotify(n, seen) => {
                if core.sched.add_notify_waiter(n, seen, id) {
                    core.procs[id.index()].state = ProcState::OnNotify(n.0);
                } else {
                    core.sched.runnable.push_back(id);
                }
            }
        }
        let (step, mut core) = dispatch(core, Some(id));
        let core = match step {
            // Our own wakeup was the next thing to run: zero-switch
            // resume, we still hold the baton.
            Dispatch::Resumed => core,
            // Another process runs next; we are resumed when our wakeup
            // is dispatched and the baton is switched back to us.
            Dispatch::Switch(q) => self.park(Some(q), core),
            // The run ended while we were dispatching (deadlock, stop,
            // time limit, event panic): take the baton home to the driver.
            // A later `run` call may still resume us.
            Dispatch::Ended(kind) => {
                core.verdict = Some(kind);
                self.park(None, core)
            }
        };
        self.now = core.sched.now();
        self.core = Some(core);
    }

    /// Let `dt` of virtual time pass (models local computation of known
    /// duration). Other processes and events run meanwhile.
    pub fn advance(&mut self, dt: Duration) {
        let target = self.now.saturating_add(dt);
        self.yield_and_wait(YieldKind::AdvanceTo(target));
        debug_assert!(self.now >= target);
    }

    /// Yield to other runnable processes at the same virtual time.
    pub fn yield_now(&mut self) {
        self.yield_and_wait(YieldKind::YieldNow);
    }

    /// Block until the trigger fires (returns immediately if already fired).
    pub fn wait(&mut self, t: Trigger) {
        self.yield_and_wait(YieldKind::WaitTrigger(t));
    }

    /// Block until the notify epoch differs from `seen`.
    ///
    /// Usage pattern (lost-wakeup free):
    /// ```ignore
    /// loop {
    ///     let (done, seen) = ctx.with_world(|w, s| (w.check(), s.notify_epoch(n)));
    ///     if done { break; }
    ///     ctx.wait_notify(n, seen);
    /// }
    /// ```
    pub fn wait_notify(&mut self, n: Notify, seen: u64) {
        self.yield_and_wait(YieldKind::WaitNotify(n, seen));
    }

    /// Run `f` against the world and scheduler at the current virtual time
    /// and return its result. Virtual time does not advance.
    ///
    /// This is the *mutating* world call: the closure may change model
    /// state, schedule events or fire triggers. It runs directly against
    /// the core this context holds — no boxing, no hand-off, no
    /// `Send`/`'static` bounds. Read-only lookups should prefer
    /// [`ProcCtx::with_world_ref`], which documents (and type-enforces)
    /// that nothing is mutated.
    pub fn with_world<R>(&mut self, f: impl FnOnce(&mut W, &mut Scheduler<W>) -> R) -> R {
        let core = self.core.as_mut().expect("world call while parked");
        f(&mut core.world, &mut core.sched)
    }

    /// Run a **read-only** access against the world and scheduler and
    /// return its result — the fast path for clock/config/state queries on
    /// the hot resume path. The shared borrow makes "cannot mutate" part of
    /// the signature.
    pub fn with_world_ref<R>(&mut self, f: impl FnOnce(&W, &Scheduler<W>) -> R) -> R {
        let core = self.core.as_ref().expect("world call while parked");
        f(&core.world, &core.sched)
    }

    /// Convenience: create a trigger via a world call.
    pub fn new_trigger(&mut self) -> Trigger {
        self.with_world(|_, s| s.new_trigger())
    }

    /// Convenience: wait until `pred` holds, re-checking whenever `n` is
    /// notified. The predicate check and the epoch snapshot happen in one
    /// world call, so no notification can be lost between them.
    pub fn wait_until<F>(&mut self, n: Notify, mut pred: F)
    where
        F: FnMut(&mut W, &mut Scheduler<W>) -> bool,
    {
        loop {
            let (done, seen) = self.with_world(|w, s| (pred(w, s), s.notify_epoch(n)));
            if done {
                return;
            }
            self.wait_notify(n, seen);
        }
    }
}

/// Driver-side record of one process.
pub(crate) struct ProcSlot<W> {
    pub name: String,
    pub state: ProcState,
    /// The body, until the first resume moves it onto the stack. A slot
    /// with `body: None` that is not `Finished` has live frames on `stack`.
    pub body: Option<Body<W>>,
    /// Where to resume this process: the frame `Stack::prepare` built until
    /// it first runs, then whatever its last `hand_off` saved.
    pub sp: StackPtr,
    /// The mapping `sp` points into; held only to be released on drop.
    _stack: Stack,
}

impl<W: Send + 'static> ProcSlot<W> {
    pub(crate) fn new(id: ProcId, name: String, stack_size: usize, body: Body<W>) -> Self {
        let mut stack = Stack::new(stack_size);
        let sp = stack.prepare(proc_entry::<W>, id.index());
        ProcSlot {
            name,
            state: ProcState::Active,
            body: Some(body),
            sp,
            _stack: stack,
        }
    }
}

impl<W> ProcSlot<W> {
    /// True when the process has started and not run to its end, i.e. its
    /// stack holds frames whose destructors have not run.
    pub(crate) fn is_suspended(&self) -> bool {
        self.body.is_none() && self.state != ProcState::Finished
    }
}

/// What a process is doing, as the deadlock report needs it. `Copy` so the
/// per-yield update is a store, not an allocation; the report strings are
/// rendered only when a report is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Not yet started or currently runnable/running.
    Active,
    /// Sleeping until this virtual time.
    Sleep(Time),
    /// Parked on this trigger id.
    OnTrigger(u32),
    /// Parked on this notify id.
    OnNotify(u32),
    Finished,
}

impl ProcState {
    /// The `blocked-on` half of a deadlock report line; `None` once
    /// finished.
    pub(crate) fn describe(self) -> Option<String> {
        match self {
            ProcState::Active => Some("runnable?".to_string()),
            ProcState::Sleep(t) => Some(format!("sleep until t={t}")),
            ProcState::OnTrigger(id) => Some(format!("trigger #{id}")),
            ProcState::OnNotify(id) => Some(format!("notify #{id}")),
            ProcState::Finished => None,
        }
    }
}

/// Where a new process's stack starts executing: `id` is the slot index
/// given to `Stack::prepare`, `payload` the baton of the first resume. All
/// the work — and every local with a destructor — lives in [`run_body`];
/// this frame only makes the last switch, from which nothing returns.
extern "C" fn proc_entry<W: Send + 'static>(id: usize, payload: *mut ()) -> ! {
    // SAFETY: a process is only ever resumed by `hand_off`, whose payload
    // is `Box::<Core<W>>::into_raw` of the baton, now ours.
    let core = unsafe { Box::from_raw(payload.cast::<Core<W>>()) };
    let id = ProcId(id as u32);
    let (to, core) = run_body(id, core);
    // SAFETY: we are process `id` on its own stack and own the baton; `to`
    // is as in `ProcCtx::park`. The process is marked `Finished`, so no
    // dispatch ever names it again and this context is never resumed.
    unsafe { hand_off(core, Some(id), to) };
    unreachable!("finished process resumed")
}

/// Run process `id`'s body to its end — normal return, panic, or the
/// [`SimShutdown`] unwind — and work out who gets the baton next (`None`:
/// the driver). By the time this returns, the `ProcCtx`, the body closure
/// and any panic payload are gone; the stack holds nothing that needs
/// dropping, which is what lets the simulation free it later.
fn run_body<W: Send + 'static>(
    id: ProcId,
    mut core: Box<Core<W>>,
) -> (Option<ProcId>, Box<Core<W>>) {
    let body = core.procs[id.index()]
        .body
        .take()
        .expect("process started twice");
    let mut ctx = ProcCtx {
        id,
        now: core.sched.now(),
        core: Some(core),
    };
    let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
    // The body runs and unwinds only while holding the baton: `dispatch`
    // never unwinds, and `park` puts the baton back before raising
    // `SimShutdown`.
    let mut core = ctx.core.take().expect("process ended while parked");
    core.procs[id.index()].state = ProcState::Finished;
    let verdict = match result {
        // Keep dispatching inline until the baton moves on or the run ends.
        Ok(()) => {
            let (step, back) = dispatch(core, None);
            core = back;
            match step {
                Dispatch::Switch(q) => return (Some(q), core),
                Dispatch::Ended(kind) => kind,
                Dispatch::Resumed => unreachable!("resumed a finished process"),
            }
        }
        // `Simulation::drop` is collecting us: straight back, no verdict.
        Err(payload) if payload.is::<SimShutdown>() => return (None, core),
        // Fail the run with process name, virtual time, and payload.
        Err(payload) => VerdictKind::ProcPanicked {
            name: core.procs[id.index()].name.clone(),
            at: core.sched.now(),
            msg: panic_message(payload.as_ref()),
        },
    };
    core.verdict = Some(verdict);
    (None, core)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
