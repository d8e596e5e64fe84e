//! The event queue: one min-heap of compact keys over a slab of payloads.
//!
//! The scheduler's contract is small: events are pushed with a unique
//! `(time, seq)` key and popped in ascending key order. The structure is
//! sized to the traffic the workloads generate — queue depth at pop is 2
//! to 200 on average and never above ~2 000, with event times spanning
//! nanoseconds to milliseconds in one run — so a heap a few levels deep
//! beats anything that has to guess a time scale (DESIGN §11 has the
//! measurements that retired the calendar queue).
//!
//! Two arrays. `heap` holds 24-byte `(time, seq, slot)` keys in heap
//! order; sifts move keys, never payloads. `slots` is a slab of payloads
//! threaded with an intrusive free list, so the steady state allocates
//! nothing. Cancellation is O(1): the [`EventKey`] carries the slot, the
//! slot remembers the `seq` it was filled under (so a stale key whose
//! slot was recycled cannot cancel the newcomer), and a cancelled entry
//! stays in the heap as a tombstone — its payload already dropped — until
//! it surfaces, where `pop_le` discards it.

use crate::sched::EventPayload;
use crate::time::Time;

/// Children per heap node. Picked from alternating runs of `jacobi_8n` and
/// `stream` (EXPERIMENTS.md "Host time: event core"); a constant, not a
/// knob.
const ARITY: usize = 2;

/// Sentinel slab index for "no slot".
const NIL: u32 = u32::MAX;

/// What the frozen benchmark's configuration stamp prints as the queue
/// backend. There is one queue; the type survives as a name only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The slab-backed min-heap in this module.
    Heap,
}

impl Backend {
    /// The one backend. Reads nothing from the environment; the name is
    /// what `examples/benchmark` compiles against.
    pub fn from_env() -> Backend {
        Backend::Heap
    }
}

/// Opaque handle for a cancellable event, returned by
/// [`crate::Scheduler::schedule_cancellable_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl EventKey {
    /// The virtual time the event will run at (unless cancelled).
    pub fn time(&self) -> Time {
        self.time
    }

    /// True when `self` orders strictly before `other`: earlier time, FIFO
    /// `seq` on ties. `seq` is unique, so this is a total order.
    #[inline]
    fn before(&self, other: &EventKey) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

struct Slot<W> {
    /// `seq` of the entry this slot was last filled for.
    seq: u64,
    /// `None` once the entry was popped or cancelled.
    payload: Option<EventPayload<W>>,
    /// Next slot on the free list (meaningful only while the slot is free).
    next_free: u32,
}

/// Result of [`EventQueue::pop_le`]: one queue probe answers "is there an
/// event at or before `limit`, and if so hand it over".
pub(crate) enum Due<W> {
    /// The minimum event was at or before the limit; it has been popped.
    Event(Time, EventPayload<W>),
    /// The queue is non-empty but its minimum lies after the limit.
    Later(#[allow(dead_code)] Time),
    /// The queue holds no live event.
    Empty,
}

pub(crate) struct EventQueue<W> {
    /// Min-heap on `(time, seq)`; may contain tombstones of cancelled
    /// entries, never at index 0 after [`EventQueue::purge`].
    heap: Vec<EventKey>,
    slots: Vec<Slot<W>>,
    /// Head of the free list of vacant slots.
    free: u32,
    /// Entries in `heap` that are not tombstones.
    live: usize,
}

impl<W> EventQueue<W> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// Number of queued events, cancelled ones excluded.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Insert an event and return the slot it occupies (what an
    /// [`EventKey`] needs beside `time` and `seq`, in a register). `seq`
    /// must be unique across the queue's lifetime.
    ///
    /// `#[inline]` here and on `pop_le` (and on their callers in
    /// `Scheduler`): this is generic code, instantiated in whichever crate
    /// names `W`, where codegen units can separate caller from callee.
    /// Measured in the benchmark binary: `sim.handoff_2proc_ns` 40 → 25.
    #[inline]
    pub(crate) fn push(&mut self, time: Time, seq: u64, payload: EventPayload<W>) -> u32 {
        let slot = if self.free != NIL {
            let slot = self.free;
            let s = &mut self.slots[slot as usize];
            self.free = s.next_free;
            s.seq = seq;
            s.payload = Some(payload);
            slot
        } else {
            // Grows by one at a time, so it cannot skip past the sentinel.
            let slot = self.slots.len() as u32;
            assert!(slot != NIL, "event slab exhausted");
            self.slots.push(Slot {
                seq,
                payload: Some(payload),
                next_free: NIL,
            });
            slot
        };
        let key = EventKey { time, seq, slot };
        let hole = self.heap.len();
        self.heap.push(key);
        self.sift_up(hole, key);
        self.live += 1;
        slot
    }

    /// Pop the earliest live event if its time is at or before `limit`.
    #[inline]
    pub(crate) fn pop_le(&mut self, limit: Time) -> Due<W> {
        self.purge();
        match self.heap.first() {
            None => Due::Empty,
            Some(k) if k.time > limit => Due::Later(k.time),
            Some(&k) => {
                let payload = self.remove_root(k).expect("purged root is live");
                self.live -= 1;
                Due::Event(k.time, payload)
            }
        }
    }

    /// Withdraw the event `key` names. False when it already ran, was
    /// already cancelled, or its slot has since been reused.
    pub(crate) fn cancel(&mut self, key: EventKey) -> bool {
        match self.slots.get_mut(key.slot as usize) {
            Some(s) if s.seq == key.seq && s.payload.is_some() => {
                s.payload = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Discard tombstones from the top of the heap so index 0 is live.
    #[inline]
    fn purge(&mut self) {
        while self.heap.len() > self.live {
            let k = self.heap[0];
            if self.slots[k.slot as usize].payload.is_some() {
                break;
            }
            self.remove_root(k);
        }
    }

    /// Remove the root key `k`, free its slot and return what it held.
    fn remove_root(&mut self, k: EventKey) -> Option<EventPayload<W>> {
        let last = self.heap.pop().expect("remove_root on an empty heap");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        let s = &mut self.slots[k.slot as usize];
        s.next_free = self.free;
        self.free = k.slot;
        s.payload.take()
    }

    /// Place `k` at or above the hole at `i`, shifting later parents down.
    /// `k` travels by value: the sifts never reload a key they just stored.
    fn sift_up(&mut self, mut i: usize, k: EventKey) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let p = self.heap[parent];
            if !k.before(&p) {
                break;
            }
            self.heap[i] = p;
            i = parent;
        }
        self.heap[i] = k;
    }

    /// Fill the hole at `i` (whose subtree lost its root) with `k`: walk the
    /// hole down the earliest-child path to a leaf, then sift `k` up from
    /// there. `k` is the former last leaf, so it belongs near the bottom and
    /// the walk down needs no comparison against it; picking the earliest
    /// child is branch-free, which matters because that choice is a coin
    /// flip the predictor loses.
    fn sift_down(&mut self, mut i: usize, k: EventKey) {
        let n = self.heap.len();
        loop {
            let first = i * ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + ARITY).min(n) {
                let earlier = self.heap[c].before(&self.heap[min]);
                min = std::hint::select_unpredictable(earlier, c, min);
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        self.sift_up(i, k);
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::{Scheduler, Simulation};

    type W = Vec<u64>;

    impl EventQueue<W> {
        /// Time of the earliest live event: what `pop_le` compares with its
        /// limit, without popping.
        fn min_time(&mut self) -> Option<Time> {
            self.purge();
            self.heap.first().map(|k| k.time)
        }
    }

    /// Payload that records `seq` in the world when run, so a pop can be
    /// checked against the key it was pushed under.
    fn tag(seq: u64) -> EventPayload<W> {
        EventPayload::Closure(Box::new(move |w, _| w.push(seq)))
    }

    /// Push a [`tag`]ged event and assemble its key, as the scheduler does.
    fn push(q: &mut EventQueue<W>, time: Time, seq: u64) -> EventKey {
        let slot = q.push(time, seq, tag(seq));
        EventKey { time, seq, slot }
    }

    /// Pop the minimum and run it: its `(time, seq)`.
    fn pop(q: &mut EventQueue<W>) -> Option<(Time, u64)> {
        match q.pop_le(Time::MAX) {
            Due::Event(t, EventPayload::Closure(f)) => {
                let mut world = Vec::new();
                f(&mut world, &mut Scheduler::new());
                Some((t, world[0]))
            }
            Due::Event(_, EventPayload::WakeProc(_)) => unreachable!("only closures pushed"),
            Due::Later(_) => unreachable!("nothing lies after Time::MAX"),
            Due::Empty => None,
        }
    }

    /// Drain the queue: the `seq`s in pop order.
    fn drain_seqs(q: &mut EventQueue<W>) -> Vec<u64> {
        std::iter::from_fn(|| pop(q)).map(|(_, seq)| seq).collect()
    }

    #[test]
    fn orders_ties_by_seq() {
        let mut q = EventQueue::<W>::new();
        for (t, seq) in [(10, 2), (10, 0), (5, 1), (10, 3)] {
            push(&mut q, t, seq);
        }
        assert_eq!(q.min_time(), Some(5));
        assert_eq!(drain_seqs(&mut q), vec![1, 0, 2, 3]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.min_time(), None);
    }

    #[test]
    fn cancel_removes_exactly_one_key() {
        let mut q = EventQueue::<W>::new();
        let keys: Vec<_> = (0..10).map(|s| push(&mut q, 100, s)).collect();
        assert!(q.cancel(keys[4]));
        assert!(!q.cancel(keys[4]), "already cancelled");
        let bogus = EventKey {
            time: 101,
            seq: 5,
            slot: 77,
        };
        assert!(!q.cancel(bogus), "no such slot");
        assert_eq!(q.len(), 9);
        assert_eq!(drain_seqs(&mut q), vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn stale_key_after_slot_reuse_does_not_cancel_the_newcomer() {
        let mut q = EventQueue::<W>::new();
        let old = push(&mut q, 10, 0);
        assert_eq!(pop(&mut q), Some((10, 0)));
        // The freed slot is the first one the next push takes.
        let new = push(&mut q, 20, 1);
        assert_eq!(old.slot, new.slot, "slot must have been recycled");
        assert!(!q.cancel(old), "stale key must not match the new tenant");
        assert_eq!(q.len(), 1);
        assert_eq!(drain_seqs(&mut q), vec![1], "the newcomer still runs");
        // Same again for a slot vacated by a cancel rather than a pop.
        let old = push(&mut q, 30, 2);
        assert!(q.cancel(old));
        assert_eq!(q.min_time(), None, "purge frees the tombstone's slot");
        let new = push(&mut q, 40, 3);
        assert_eq!(old.slot, new.slot);
        assert!(!q.cancel(old));
        assert_eq!(drain_seqs(&mut q), vec![3]);
    }

    #[test]
    fn cancelled_minimum_is_skipped_by_peek_and_pop() {
        let mut q = EventQueue::<W>::new();
        let first = push(&mut q, 5, 0);
        let second = push(&mut q, 6, 1);
        push(&mut q, 50, 2);
        assert!(q.cancel(first));
        assert_eq!(q.min_time(), Some(6), "peek must not report a tombstone");
        assert!(q.cancel(second));
        // The tombstone at 6 must neither be handed out nor make the queue
        // look due before 50.
        assert!(matches!(q.pop_le(10), Due::Later(50)));
        assert_eq!(q.len(), 1);
        assert_eq!(drain_seqs(&mut q), vec![2]);
        assert!(matches!(q.pop_le(Time::MAX), Due::Empty));
    }

    #[test]
    fn scheduler_counts_and_peeks_live_events_only() {
        let mut s = Scheduler::<W>::new();
        s.schedule_at(30, |w, _| w.push(30));
        let k = s.schedule_cancellable_at(10, |w, _| w.push(10));
        assert_eq!(s.queued_events(), 2);
        assert!(s.cancel(k));
        assert_eq!(s.queued_events(), 1, "cancelled entries are not queued");
        assert!(
            matches!(s.pop_due(20), Due::Later(30)),
            "the tombstone at 10 is neither due nor the minimum"
        );
        assert_eq!(s.events_executed(), 0);
    }

    /// ns-scale churn at the front while hundreds of events sit 1–20 ms
    /// ahead: the mix of scales that sent the calendar queue to its
    /// whole-slab search.
    #[test]
    fn multi_scale_sequence_pops_in_key_order() {
        let mut q = EventQueue::<W>::new();
        let mut g = rucx_compat::rng::Rng::new(0x5ca1e);
        let mut expect = Vec::new();
        let mut add = |q: &mut EventQueue<W>, t: Time| {
            let seq = expect.len() as u64;
            push(q, t, seq);
            expect.push((t, seq));
        };
        for _ in 0..240 {
            add(&mut q, g.gen_range(1_000_000..20_000_000));
        }
        let mut now = 0;
        let mut got = Vec::new();
        for _ in 0..5_000 {
            for _ in 0..g.gen_range(1..4) {
                add(&mut q, now + g.gen_range(0..40));
            }
            let k = pop(&mut q).expect("the far events outlast the churn");
            assert!(k.0 >= now, "time went backwards");
            now = k.0;
            got.push(k);
        }
        assert!(q.len() >= 200, "the far events are still queued");
        got.extend(std::iter::from_fn(|| pop(&mut q)));
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    /// ≥ 64 seeded cases driving the queue and a `BinaryHeap` reference
    /// through identical operation sequences — heavy timestamp ties,
    /// zero-delay (same-time) pushes interleaved mid-drain, and random
    /// cancellations of live and bogus keys — asserting identical
    /// `(time, seq)` pop streams and equal `len` after every operation.
    #[test]
    fn queue_matches_reference_pop_order() {
        rucx_compat::check::check_with("queue_matches_reference", 64, |g| {
            let mut q = EventQueue::<W>::new();
            let mut reference: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
            let mut live: Vec<EventKey> = Vec::new();
            let mut dead: Vec<EventKey> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64; // monotone floor, mirrors Scheduler::now
            let ops = g.usize(50..400);
            for _ in 0..ops {
                match g.u32(0..10) {
                    // Push: clustered times with heavy ties, occasionally a
                    // zero-delay self-send (exactly `now`).
                    0..=5 => {
                        let t = match g.u32(0..4) {
                            0 => now, // zero-delay
                            1 => now + g.u64(0..4),
                            2 => now + g.u64(0..1000),
                            _ => now + (1 << g.u32(0..30)) + g.u64(0..8),
                        };
                        live.push(push(&mut q, t, seq));
                        reference.push(Reverse((t, seq)));
                        seq += 1;
                    }
                    // Pop from both; keys must match.
                    6..=8 => {
                        let a = pop(&mut q);
                        let b = reference.pop().map(|Reverse(k)| k);
                        assert_eq!(a, b, "pop diverged (case {:#x})", g.case_seed);
                        if let Some((t, s)) = a {
                            assert!(t >= now, "time went backwards");
                            now = t;
                            let i = live.iter().position(|k| k.seq == s).expect("was live");
                            dead.push(live.swap_remove(i));
                        }
                    }
                    // Cancel a live key, a key that already left the queue
                    // (its slot likely reused since), or a made-up one.
                    _ => {
                        let (key, was_live) = match g.u32(0..3) {
                            0 if !live.is_empty() => {
                                (live.swap_remove(g.usize(0..live.len())), true)
                            }
                            1 if !dead.is_empty() => (dead[g.usize(0..dead.len())], false),
                            _ => {
                                let bogus = EventKey {
                                    time: now + g.u64(0..100),
                                    seq: seq + 1000,
                                    slot: g.u32(0..64),
                                };
                                (bogus, false)
                            }
                        };
                        assert_eq!(
                            q.cancel(key),
                            was_live,
                            "cancel diverged (case {:#x})",
                            g.case_seed
                        );
                        if was_live {
                            reference.retain(|Reverse(k)| *k != (key.time, key.seq));
                            dead.push(key);
                        }
                    }
                }
                assert_eq!(q.len(), reference.len());
                assert_eq!(q.min_time(), reference.peek().map(|Reverse(k)| k.0));
            }
            // Drain the remainder: the full tail must agree too.
            let tail: Vec<u64> = std::iter::from_fn(|| reference.pop())
                .map(|Reverse(k)| k.1)
                .collect();
            assert_eq!(
                drain_seqs(&mut q),
                tail,
                "drain diverged (case {:#x})",
                g.case_seed
            );
        });
    }

    /// Dropping a simulation with queued and cancelled closures runs each
    /// captured destructor exactly once: at the cancel for a cancelled
    /// one, with the slab for a queued one, and when it runs for one that
    /// ran.
    #[test]
    fn dropping_a_simulation_drops_each_closure_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let mut sim = Simulation::new(0u64);
        let mut keys = Vec::new();
        for i in 0..30u64 {
            let c = Counted(drops.clone());
            keys.push(sim.scheduler().schedule_cancellable_at(i, move |w, _| {
                let _keep = &c;
                *w += 1;
            }));
        }
        // Ten run, ten are cancelled (five of them from under the heap's
        // top, so their tombstones are still in the heap at drop), ten
        // stay queued.
        sim.run_until(9);
        assert_eq!(*sim.world(), 10);
        assert_eq!(drops.load(Ordering::SeqCst), 10);
        for k in &keys[15..25] {
            assert!(sim.scheduler().cancel(*k));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 20, "cancel drops the payload");
        for k in &keys[..10] {
            assert!(!sim.scheduler().cancel(*k), "already ran");
        }
        assert_eq!(sim.scheduler().queued_events(), 10);
        drop(sim);
        assert_eq!(drops.load(Ordering::SeqCst), 30);
    }
}
