//! # rucx-sim — deterministic discrete-event simulation engine
//!
//! Foundation of the `rucx` reproduction of *GPU-aware Communication with
//! UCX in Parallel Programming Models* (IPDPSW 2021). All hardware the paper
//! evaluates on (Summit's GPUs, NVLink, X-Bus, EDR InfiniBand) is simulated;
//! this crate provides the virtual clock, the event queue, and *simulated
//! processes* — stackful coroutines that all run on the thread that called
//! [`Simulation::run_until`] and execute strictly one at a time: all run
//! state travels between them as a single baton (a boxed core that is the
//! payload of each user-level context switch), so runtime layers above can
//! write natural blocking code (an `MPI_Recv` that simply does not return
//! until virtual time reaches message arrival) while the whole simulation
//! stays deterministic — and a process resuming from its own wakeup never
//! switches at all. No OS thread, futex or channel is involved: a hop
//! between two processes costs tens of nanoseconds whatever their number.
//!
//! ## Architecture
//!
//! - [`Scheduler`] — virtual clock, `(time, seq)`-ordered event queue, and
//!   wait primitives ([`Trigger`] one-shot latches, [`Notify`]
//!   epoch-counting condition variables).
//! - [`Simulation`] — owns the world `W` (all model state), the scheduler,
//!   and the process table; runs the main loop.
//! - [`ProcCtx`] — handed to each process body; `advance` models local
//!   compute, `with_world` gives synchronous mutating access to model
//!   state, `with_world_ref` is the read-only fast path — both direct
//!   calls against the core this context holds — and
//!   `wait`/`wait_notify`/`wait_until` park the process.
//! - [`coro`] — all the foreign and architecture-specific code in the
//!   crate: the context switch, the first-activation trampoline, and
//!   guard-paged `mmap`ed stacks recycled through a free list, so
//!   workloads that build many simulations back to back map their stacks
//!   once. The only `unsafe` outside it is the baton hand-off that calls
//!   the switch (`sim::hand_off` and its three callers).
//! - [`trace`] and [`stats`] — the one observability sink: a ring of typed
//!   trace events and a table of named counters, both owned by the
//!   [`Scheduler`] so every model layer records through the handle it
//!   already holds (`count`, `count_n`, `mark`, `trace_instant`,
//!   `trace_span`, `trace_span_in`) and a run is read back from one place
//!   ([`Simulation::metrics`], `scheduler_ref().trace`).
//!
//! Determinism: events are dispatched in `(time, insertion order)`; processes
//! woken at the same instant run in wake order; exactly one context holds
//! the core at any moment, so the world is only ever touched by the running
//! one. Dispatch order is independent of whose stack executes it, and a
//! recycled stack carries no state between processes, so neither stack
//! reuse nor the baton hand-offs perturb traces.
//!
//! ## Scale
//!
//! One mechanism keeps 1536-PE sweeps tractable. The event queue is one
//! concrete structure the [`Scheduler`] owns directly — a binary min-heap
//! of 24-byte `(time, seq, slot)` keys over a slab of payloads, with O(1)
//! cancellation by tombstone — sized to what the workloads put in it (a
//! few to a few hundred events at a time, never above ~2 000, at time
//! scales from ns to ms in one run); there is no second backend and no
//! switch. A [`Simulation`] is the only engine: the full stack at 256
//! nodes (1 536 coroutines) runs in seconds on the calling thread.

pub mod coro;
pub mod process;
mod queue;
pub mod sched;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use process::ProcCtx;
pub use queue::Backend;
pub use sched::{EventKey, Notify, ProcId, Scheduler, Trigger};
pub use sim::{RunOutcome, SimConfig, Simulation};
pub use stats::{Counters, Metric};
pub use time::{Duration, Time};
pub use trace::{Phase, TraceEvent, TraceSink};
