//! Conservative-lookahead sharded execution of multiple [`Simulation`]s.
//!
//! A [`ShardedEngine`] owns N independent simulations ("shards"), each
//! modelling a disjoint set of simulated nodes, and advances them on OS
//! threads in *windows*: with `m` the global minimum next-event time across
//! shards and `L` the lookahead (the minimum virtual latency of any
//! cross-shard interaction), every shard may safely execute all events in
//! `[m, m + L - 1]` without hearing from the others — any message sent at
//! time `s ≥ m` arrives at `s + L > m + L - 1`, i.e. strictly after the
//! window. This is classic conservative (null-message-free) parallel DES:
//! no rollback, no null messages, a barrier per window.
//!
//! Cross-shard messages travel as *envelopes*: the sending shard leases a
//! slot from a shared arena ([`EnvelopePool`]) and pushes the lease into
//! its [`Outbox`] during the window; at the barrier the engine drains all
//! outboxes, sorts envelopes by `(recv, key, src, dst)` — a total,
//! thread-timing-independent order — and schedules each delivery as an
//! ordinary event on the destination shard. Determinism therefore does not
//! depend on which OS thread finished first, and a run with any shard
//! count replays the exact same virtual-time history.
//!
//! Fault injection hooks in at routing: an optional [`RouteHook`] sees
//! every envelope at the barrier and may drop, duplicate, or delay it —
//! giving chaos tests coverage of faults that cross shard boundaries.
//!
//! Panic safety: each shard runs its window under `catch_unwind`. If a
//! shard panics mid-window the engine drains every outbox (returning all
//! leased arena slots) before resuming the panic, and the shard's
//! `Simulation` keeps its core, so its parked processes are unwound and
//! their stacks recycled when the engine is dropped — no leaked slots, no
//! leaked stacks. A shard's processes are coroutines that travel with its
//! `Simulation`, so successive windows may run them on different workers.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rucx_compat::sync::Mutex;

use crate::sched::Scheduler;
use crate::sim::Simulation;
use crate::time::{Duration, Time};

/// Shared arena of in-flight cross-shard payloads. Slots are leased on
/// send and returned on delivery (or on drop of an undelivered lease), so
/// `in_use() == 0` between windows is an invariant chaos tests can audit.
pub struct EnvelopePool<E> {
    slots: Mutex<Slots<E>>,
    in_use: AtomicUsize,
}

struct Slots<E> {
    arena: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> EnvelopePool<E> {
    pub fn new() -> Arc<Self> {
        Arc::new(EnvelopePool {
            slots: Mutex::new(Slots {
                arena: Vec::new(),
                free: Vec::new(),
            }),
            in_use: AtomicUsize::new(0),
        })
    }

    /// Lease a slot holding `payload`. The lease returns the slot on drop
    /// unless the payload is taken out first.
    pub fn lease(self: &Arc<Self>, payload: E) -> EnvelopeLease<E> {
        let slot = {
            let mut s = self.slots.lock();
            match s.free.pop() {
                Some(i) => {
                    s.arena[i as usize] = Some(payload);
                    i
                }
                None => {
                    s.arena.push(Some(payload));
                    (s.arena.len() - 1) as u32
                }
            }
        };
        self.in_use.fetch_add(1, Ordering::Relaxed);
        EnvelopeLease {
            pool: self.clone(),
            slot,
            live: true,
        }
    }

    /// Number of currently leased slots (0 between windows, always 0 after
    /// a run — even one that panicked).
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of the arena (slots ever allocated).
    pub fn capacity(&self) -> usize {
        self.slots.lock().arena.len()
    }

    fn release(&self, slot: u32) -> Option<E> {
        let payload = {
            let mut s = self.slots.lock();
            let p = s.arena[slot as usize].take();
            s.free.push(slot);
            p
        };
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        payload
    }
}

/// RAII lease of one [`EnvelopePool`] slot.
pub struct EnvelopeLease<E> {
    pool: Arc<EnvelopePool<E>>,
    slot: u32,
    live: bool,
}

impl<E> EnvelopeLease<E> {
    /// Take the payload out, returning the slot to the pool.
    pub fn take(mut self) -> E {
        self.live = false;
        self.pool
            .clone()
            .release(self.slot)
            .expect("envelope slot already vacated")
    }

    /// Inspect the payload in place (e.g. from a [`RouteHook`]).
    pub fn with<R>(&self, f: impl FnOnce(&E) -> R) -> R {
        let s = self.pool.slots.lock();
        f(s.arena[self.slot as usize]
            .as_ref()
            .expect("envelope slot already vacated"))
    }
}

impl<E> Drop for EnvelopeLease<E> {
    fn drop(&mut self) {
        if self.live {
            self.pool.release(self.slot);
        }
    }
}

/// One cross-shard message awaiting the barrier.
pub struct Envelope<E> {
    pub src_shard: usize,
    pub dst_shard: usize,
    /// Virtual arrival time. Conservative contract: an envelope sent during
    /// a window must arrive strictly after that window's limit.
    pub recv: Time,
    /// Deterministic tiebreak among same-`recv` envelopes, e.g.
    /// `(source rank, per-source send sequence)`. Must be unique per
    /// source shard.
    pub key: (u64, u64),
    pub payload: EnvelopeLease<E>,
}

/// Per-shard staging area for outgoing envelopes; clone it into the
/// shard's world. Sends are cheap (one pool lease + one Vec push); the
/// engine drains it at every window barrier.
pub struct Outbox<E> {
    inner: Arc<OutboxInner<E>>,
}

impl<E> Clone for Outbox<E> {
    fn clone(&self) -> Self {
        Outbox {
            inner: self.inner.clone(),
        }
    }
}

struct OutboxInner<E> {
    shard: usize,
    pool: Arc<EnvelopePool<E>>,
    queue: Mutex<Vec<Envelope<E>>>,
}

impl<E> Outbox<E> {
    fn new(shard: usize, pool: Arc<EnvelopePool<E>>) -> Self {
        Outbox {
            inner: Arc::new(OutboxInner {
                shard,
                pool,
                queue: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Queue `payload` for delivery to `dst_shard` at virtual time `recv`.
    pub fn send(&self, dst_shard: usize, recv: Time, key: (u64, u64), payload: E) {
        let lease = self.inner.pool.lease(payload);
        self.inner.queue.lock().push(Envelope {
            src_shard: self.inner.shard,
            dst_shard,
            recv,
            key,
            payload: lease,
        });
    }

    /// Envelopes currently staged (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn drain(&self) -> Vec<Envelope<E>> {
        std::mem::take(&mut *self.inner.queue.lock())
    }
}

/// Routing metadata a [`RouteHook`] decides on.
#[derive(Debug, Clone, Copy)]
pub struct RouteInfo {
    pub src_shard: usize,
    pub dst_shard: usize,
    pub recv: Time,
    pub key: (u64, u64),
}

/// What to do with one envelope at the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    Deliver,
    /// Silently lose the envelope (the model must detect and surface it).
    Drop,
    /// Deliver twice (switch-retransmission artifact).
    Duplicate,
    /// Deliver late by the given extra delay.
    Delay(Duration),
}

/// Per-envelope routing hook (fault injection). To keep runs shard-count
/// invariant the decision should be a pure function of `(info, payload)` —
/// e.g. a hash of `(seed, key)` — not of call order: the engine applies
/// hooks in sorted envelope order, which differs across shard counts.
pub type RouteHook<E> = Box<dyn FnMut(&RouteInfo, &E) -> RouteDecision + Send>;

/// Counters the engine keeps per run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookahead windows executed.
    pub windows: u64,
    /// Envelopes drained at barriers (before routing decisions).
    pub envelopes: u64,
    /// Deliveries scheduled (duplicates count twice).
    pub delivered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    /// Total events executed across all shards (filled in when the run
    /// ends).
    pub events: u64,
}

/// Why [`ShardedEngine::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardedOutcome {
    /// Every shard drained its queue and finished its processes.
    Completed,
    /// Global stall: no shard has events, no envelopes are in flight, yet
    /// work remains parked — reachable only when routing dropped envelopes
    /// (`lost > 0`) or a model deadlocked. The "give up" verdict of a
    /// lossy run: progress is provably impossible.
    Stalled {
        /// `(process name, blocked-on)` pairs across all shards.
        blocked: Vec<(String, String)>,
        /// Envelopes lost to [`RouteDecision::Drop`].
        lost: u64,
    },
}

/// Conservative-lookahead parallel driver over `N` shards.
///
/// `W` is the per-shard world, `E` the cross-shard payload. Deliveries go
/// through a single `deliver` function, invoked *as a scheduled event* on
/// the destination shard at the envelope's `recv` time — so between
/// windows every shard is quiescent and `next_event_time` fully accounts
/// for pending deliveries.
pub struct ShardedEngine<W: Send + 'static, E: Send + 'static> {
    shards: Vec<Simulation<W>>,
    outboxes: Vec<Outbox<E>>,
    pool: Arc<EnvelopePool<E>>,
    lookahead: Duration,
    deliver: Arc<dyn Fn(&mut W, &mut Scheduler<W>, E) + Send + Sync>,
    route_hook: Option<RouteHook<E>>,
    stats: ShardStats,
    /// Limit of the most recent window (for the conservative-contract
    /// assertion on envelope recv times).
    last_limit: Option<Time>,
}

impl<W: Send + 'static, E: Send + Clone + 'static> ShardedEngine<W, E> {
    /// Build an engine: `build(shard_index, outbox)` constructs each
    /// shard's simulation (stash the outbox in the world and seed initial
    /// events); `deliver` applies an arriving cross-shard payload.
    ///
    /// `lookahead` must be a *lower bound* on `recv - send_time` for every
    /// envelope any shard ever sends; the engine debug-asserts it.
    pub fn new(
        n_shards: usize,
        lookahead: Duration,
        deliver: impl Fn(&mut W, &mut Scheduler<W>, E) + Send + Sync + 'static,
        mut build: impl FnMut(usize, Outbox<E>) -> Simulation<W>,
    ) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        let lookahead = lookahead.max(1);
        let pool = EnvelopePool::new();
        let outboxes: Vec<Outbox<E>> = (0..n_shards)
            .map(|i| Outbox::new(i, pool.clone()))
            .collect();
        let shards = (0..n_shards)
            .map(|i| build(i, outboxes[i].clone()))
            .collect();
        ShardedEngine {
            shards,
            outboxes,
            pool,
            lookahead,
            deliver: Arc::new(deliver),
            route_hook: None,
            stats: ShardStats::default(),
            last_limit: None,
        }
    }

    /// Install a routing hook (fault injection). See [`RouteHook`].
    pub fn set_route_hook(
        &mut self,
        hook: impl FnMut(&RouteInfo, &E) -> RouteDecision + Send + 'static,
    ) {
        self.route_hook = Some(Box::new(hook));
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    pub fn pool(&self) -> &Arc<EnvelopePool<E>> {
        &self.pool
    }

    pub fn shards(&self) -> &[Simulation<W>] {
        &self.shards
    }

    pub fn shard_mut(&mut self, i: usize) -> &mut Simulation<W> {
        &mut self.shards[i]
    }

    /// Run to global completion or stall.
    pub fn run(&mut self) -> ShardedOutcome {
        loop {
            // Barrier work first: deliveries from the previous window
            // become scheduled events, so they count toward `m`.
            self.exchange();
            let m = match self
                .shards
                .iter_mut()
                .filter_map(|s| s.next_event_time())
                .min()
            {
                Some(m) => m,
                None => break,
            };
            let limit = m.saturating_add(self.lookahead - 1);
            self.stats.windows += 1;
            self.last_limit = Some(limit);
            self.run_window(limit);
        }
        self.stats.events = self
            .shards
            .iter()
            .map(|s| s.scheduler_ref().events_executed())
            .sum();
        let all_done = self.shards.iter().all(|s| s.all_processes_finished());
        if all_done {
            ShardedOutcome::Completed
        } else {
            ShardedOutcome::Stalled {
                blocked: self
                    .shards
                    .iter()
                    .flat_map(|s| s.blocked_processes())
                    .collect(),
                lost: self.stats.dropped,
            }
        }
    }

    /// Execute one window: every shard with work due by `limit` advances
    /// concurrently (inline when only one is active). A panicking shard
    /// drains all outboxes — returning leased slots — before the panic
    /// resumes on the engine's thread.
    fn run_window(&mut self, limit: Time) {
        let mut active: Vec<&mut Simulation<W>> = self
            .shards
            .iter_mut()
            .filter_map(|s| match s.next_event_time() {
                Some(t) if t <= limit => Some(s),
                _ => None,
            })
            .collect();
        let mut panic_payload = None;
        if active.len() == 1 {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| active[0].run_until(limit))) {
                panic_payload = Some(p);
            }
        } else {
            let payloads: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = active
                    .into_iter()
                    .map(|sim| {
                        scope.spawn(move || {
                            catch_unwind(AssertUnwindSafe(|| sim.run_until(limit))).err()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .filter_map(|h| h.join().expect("shard watchdog thread panicked"))
                    .collect()
            });
            panic_payload = payloads.into_iter().next();
        }
        if let Some(p) = panic_payload {
            // Return every leased envelope slot before propagating: the
            // arena must not leak across a shard panic.
            for ob in &self.outboxes {
                drop(ob.drain());
            }
            resume_unwind(p);
        }
    }

    /// Drain all outboxes, order envelopes deterministically, apply the
    /// routing hook, and schedule deliveries on the destination shards.
    fn exchange(&mut self) {
        let mut all: Vec<Envelope<E>> = Vec::new();
        for ob in &self.outboxes {
            all.extend(ob.drain());
        }
        if all.is_empty() {
            return;
        }
        // Total order independent of thread timing and shard count.
        all.sort_by_key(|e| (e.recv, e.key, e.src_shard, e.dst_shard));
        for env in all {
            self.stats.envelopes += 1;
            if let Some(limit) = self.last_limit {
                debug_assert!(
                    env.recv > limit,
                    "conservative contract violated: envelope recv {} within window limit {limit}",
                    env.recv
                );
            }
            let info = RouteInfo {
                src_shard: env.src_shard,
                dst_shard: env.dst_shard,
                recv: env.recv,
                key: env.key,
            };
            let decision = match self.route_hook.as_mut() {
                Some(h) => env.payload.with(|p| h(&info, p)),
                None => RouteDecision::Deliver,
            };
            match decision {
                RouteDecision::Deliver => {
                    self.stats.delivered += 1;
                    self.deliver_at(env.dst_shard, env.recv, env.payload.take());
                }
                RouteDecision::Drop => {
                    self.stats.dropped += 1;
                    drop(env.payload);
                }
                RouteDecision::Duplicate => {
                    self.stats.duplicated += 1;
                    self.stats.delivered += 2;
                    let copy = env.payload.with(|p| p.clone());
                    self.deliver_at(env.dst_shard, env.recv, copy);
                    self.deliver_at(env.dst_shard, env.recv, env.payload.take());
                }
                RouteDecision::Delay(extra) => {
                    self.stats.delayed += 1;
                    self.stats.delivered += 1;
                    let at = env.recv.saturating_add(extra);
                    self.deliver_at(env.dst_shard, at, env.payload.take());
                }
            }
        }
    }

    fn deliver_at(&mut self, dst: usize, at: Time, payload: E) {
        let f = self.deliver.clone();
        self.shards[dst].with_parts(move |_, s| {
            s.schedule_at(at, move |w, s| f(w, s, payload));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong across two shards: shard 0 sends k, shard 1 replies k+1,
    /// until 10. Exercises windows, envelope ordering, and termination.
    #[test]
    fn two_shard_ping_pong_completes() {
        struct World {
            id: usize,
            outbox: Outbox<u64>,
            seen: Vec<(Time, u64)>,
        }
        const LAT: Duration = 100;
        let mut engine = ShardedEngine::new(
            2,
            LAT,
            |w: &mut World, s: &mut Scheduler<World>, k: u64| {
                w.seen.push((s.now(), k));
                if k < 10 {
                    let dst = 1 - w.id;
                    w.outbox.send(dst, s.now() + LAT, (w.id as u64, k), k + 1);
                }
            },
            |id, outbox| {
                let mut sim = Simulation::new(World {
                    id,
                    outbox,
                    seen: Vec::new(),
                });
                if id == 0 {
                    sim.with_parts(|w, s| {
                        let recv = s.now() + LAT;
                        w.outbox.send(1, recv, (0, 999), 0);
                    });
                }
                sim
            },
        );
        assert_eq!(engine.run(), ShardedOutcome::Completed);
        assert_eq!(engine.pool().in_use(), 0);
        let s1 = &engine.shards()[1].world().seen;
        let s0 = &engine.shards()[0].world().seen;
        assert_eq!(s1.first(), Some(&(100, 0)));
        assert_eq!(s1.last(), Some(&(1100, 10)), "final hop lands at 11·LAT");
        assert_eq!(s0.len() + s1.len(), 11, "all 11 hops delivered");
        assert!(engine.stats().windows > 0);
        assert_eq!(engine.stats().delivered, 11);
    }

    /// Dropping every envelope stalls the run and reports the loss.
    #[test]
    fn dropped_envelopes_stall_with_loss_reported() {
        struct World {
            outbox: Outbox<u64>,
        }
        let mut engine = ShardedEngine::new(
            2,
            50,
            |_w: &mut World, _s: &mut Scheduler<World>, _k: u64| {
                panic!("nothing must be delivered");
            },
            |id, outbox| {
                let mut sim = Simulation::new(World { outbox });
                if id == 0 {
                    // A process that waits forever models "work remains".
                    let t = sim.scheduler().new_trigger();
                    sim.spawn("waiter", 0, move |ctx| ctx.wait(t));
                    sim.with_parts(|w, s| {
                        let recv = s.now() + 50;
                        w.outbox.send(1, recv, (0, 0), 7);
                    });
                }
                sim
            },
        );
        engine.set_route_hook(|_, _| RouteDecision::Drop);
        match engine.run() {
            ShardedOutcome::Stalled { blocked, lost } => {
                assert_eq!(lost, 1);
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, "waiter");
            }
            other => panic!("expected stall, got {other:?}"),
        }
        assert_eq!(engine.pool().in_use(), 0, "dropped lease must be returned");
    }

    /// The process-panic regression, extended to the sharded path. A shard
    /// whose process panics mid-window (after staging envelopes) must
    /// propagate the panic with name/time/payload and return every leased
    /// arena slot. (That the panicked process's stack is recycled is
    /// `process_panic_reports_name_time_and_payload`'s half.)
    #[test]
    fn shard_panic_returns_arena_slots() {
        struct World {
            outbox: Outbox<u64>,
        }
        let mut engine = ShardedEngine::new(
            2,
            1000,
            |_w: &mut World, _s: &mut Scheduler<World>, _k: u64| {},
            move |id, outbox| {
                let mut sim = Simulation::new(World { outbox });
                if id == 1 {
                    sim.spawn("doomed", 0, |ctx| {
                        ctx.advance(77);
                        ctx.with_world(|w, s| {
                            // Stage envelopes, then die before the barrier.
                            let recv = s.now() + 1000;
                            w.outbox.send(0, recv, (1, 0), 1);
                            w.outbox.send(0, recv + 1, (1, 1), 2);
                        });
                        panic!("mid-window failure");
                    });
                } else {
                    sim.with_parts(|_, s| s.schedule_at(0, |_, _| {}));
                }
                sim
            },
        );
        let arena = engine.pool().clone();
        let err = catch_unwind(AssertUnwindSafe(|| engine.run()))
            .expect_err("shard panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .expect("driver panic carries a String");
        assert!(msg.contains("'doomed'"), "missing process name: {msg}");
        assert!(msg.contains("t=77"), "missing virtual time: {msg}");
        assert!(msg.contains("mid-window failure"), "missing payload: {msg}");
        // Leased slots came back even though the envelopes never reached
        // their destination.
        assert_eq!(arena.in_use(), 0, "arena slots leaked across shard panic");
        assert!(arena.capacity() >= 2, "envelopes were actually staged");
        drop(engine);
    }

    /// Same seed, different shard counts is the caller's concern; but the
    /// same engine run twice must be identical — and duplicates/delays
    /// must route deterministically.
    #[test]
    fn duplicate_and_delay_routing_is_deterministic() {
        fn run_once() -> (Vec<(Time, u64)>, ShardStats) {
            struct World {
                id: usize,
                outbox: Outbox<u64>,
                seen: Vec<(Time, u64)>,
            }
            let mut engine = ShardedEngine::new(
                3,
                10,
                |w: &mut World, s: &mut Scheduler<World>, k: u64| {
                    w.seen.push((s.now(), k));
                },
                |id, outbox| {
                    let mut sim = Simulation::new(World {
                        id,
                        outbox,
                        seen: Vec::new(),
                    });
                    sim.with_parts(|w, s| {
                        let id = w.id;
                        s.schedule_at(5, move |w: &mut World, s: &mut Scheduler<World>| {
                            for dst in 0..3usize {
                                if dst != id {
                                    let recv = s.now() + 10;
                                    w.outbox.send(dst, recv, (id as u64, dst as u64), id as u64);
                                }
                            }
                        });
                    });
                    sim
                },
            );
            engine.set_route_hook(|info, _| match info.key {
                (0, 1) => RouteDecision::Duplicate,
                (1, 2) => RouteDecision::Delay(33),
                (2, 0) => RouteDecision::Drop,
                _ => RouteDecision::Deliver,
            });
            let _ = engine.run();
            let mut all = Vec::new();
            for sh in engine.shards() {
                all.extend(sh.world().seen.iter().copied());
            }
            all.sort_unstable();
            assert_eq!(engine.pool().in_use(), 0);
            (all, engine.stats().clone())
        }
        let (a, sa) = run_once();
        let (b, sb) = run_once();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.duplicated, 1);
        assert_eq!(sa.delayed, 1);
        assert_eq!(sa.dropped, 1);
        // 6 envelopes: 4 normal + 1 dup (2 deliveries) + 1 delayed - 1 drop.
        assert_eq!(sa.envelopes, 6);
        assert_eq!(sa.delivered, 6);
        assert_eq!(a.len(), 6);
    }
}
