//! Sequence numbers and in-order release: the one implementation behind
//! every layer of the stack that restores send order.
//!
//! Three layers number their messages and hold back an arrival that
//! overtook an earlier one:
//! - UCP's reliability protocol ([`crate::reliable`]), per directed
//!   endpoint: a UCX endpoint is non-overtaking, but a delayed or
//!   retransmitted envelope can be passed on the wire by a later one;
//! - AMPI, per source rank: MPI's non-overtaking rule above the Charm++
//!   machine layer, whose scheduler dispatches a rendezvous envelope only
//!   when its fetch completes, after later eager ones;
//! - Charm4py channels, per peer, for the same reason (the real `Channel`
//!   class keeps a seqnum).
//!
//! Each layer stamps what it sends from a [`SendSeq`] and sorts what it
//! receives through a [`RecvWindow`]. How the number travels and what a
//! hold is counted as stay with the layer.

use std::collections::VecDeque;
use std::hash::Hash;

use rucx_compat::idmap::IdMap;

/// Per-key send counter: numbers 0, 1, 2, … independently for each key
/// (destination rank, peer, or directed endpoint).
pub struct SendSeq<K> {
    next: IdMap<K, u64>,
}

impl<K> Default for SendSeq<K> {
    fn default() -> Self {
        SendSeq {
            next: IdMap::default(),
        }
    }
}

impl<K: Hash + Eq> SendSeq<K> {
    /// The sequence number for the next message to `key`.
    pub fn next(&mut self, key: K) -> u64 {
        let n = self.next.entry(key).or_insert(0);
        let seq = *n;
        *n += 1;
        seq
    }

    /// Restart `key`'s numbering at 0.
    pub fn forget(&mut self, key: &K) {
        self.next.remove(key);
    }
}

/// Where one arrival stands against its source's delivered prefix.
#[derive(Debug, PartialEq, Eq)]
pub enum Arrival<T> {
    /// Already delivered or already held: drop it.
    Duplicate,
    /// Ahead of a gap: kept until the messages below it arrive.
    Held,
    /// Next in order: deliver it, then [`RecvWindow::release`] what it
    /// unblocked.
    Deliver(T),
}

struct Source<T> {
    /// The sequence number due next.
    expect: u64,
    /// Slot `i` holds sequence number `expect + i` once it has arrived;
    /// slot 0 stays empty (that message is delivered, not held).
    ahead: VecDeque<Option<T>>,
}

impl<T> Default for Source<T> {
    fn default() -> Self {
        Source {
            expect: 0,
            ahead: VecDeque::new(),
        }
    }
}

/// Per-source receive windows: the delivered prefix of each source plus the
/// arrivals held ahead of it. Memory stays proportional to the reordering
/// distance. An in-order arrival costs one map lookup and allocates nothing
/// (after its source's first message), and [`RecvWindow::release`] returns
/// at once while nothing is held anywhere.
pub struct RecvWindow<K, T> {
    sources: IdMap<K, Source<T>>,
    /// Held arrivals over all sources.
    held: usize,
}

impl<K, T> Default for RecvWindow<K, T> {
    fn default() -> Self {
        RecvWindow {
            sources: IdMap::default(),
            held: 0,
        }
    }
}

impl<K: Hash + Eq, T> RecvWindow<K, T> {
    /// Sort message `seq` from `src` into duplicate, held or deliverable.
    pub fn arrive(&mut self, src: K, seq: u64, item: T) -> Arrival<T> {
        let s = self.sources.entry(src).or_default();
        let Some(gap) = seq.checked_sub(s.expect) else {
            return Arrival::Duplicate;
        };
        if gap == 0 {
            s.expect += 1;
            s.ahead.pop_front();
            return Arrival::Deliver(item);
        }
        let gap = gap as usize;
        if s.ahead.len() <= gap {
            s.ahead.resize_with(gap + 1, || None);
        }
        let slot = &mut s.ahead[gap];
        if slot.is_some() {
            return Arrival::Duplicate;
        }
        *slot = Some(item);
        self.held += 1;
        Arrival::Held
    }

    /// The held message from `src` that is now next in order, if any. Call
    /// until `None` after each [`Arrival::Deliver`] to release the
    /// consecutive run behind it.
    pub fn release(&mut self, src: &K) -> Option<T> {
        if self.held == 0 {
            return None;
        }
        let s = self.sources.get_mut(src)?;
        let item = s.ahead.front_mut()?.take()?;
        s.ahead.pop_front();
        s.expect += 1;
        self.held -= 1;
        Some(item)
    }

    /// Drop `src`'s window and everything held in it; its next message is
    /// expected at sequence number 0 again.
    pub fn forget(&mut self, src: &K) {
        if let Some(s) = self.sources.remove(src) {
            self.held -= s.ahead.iter().flatten().count();
        }
    }

    /// Messages held over all sources.
    pub fn held(&self) -> usize {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_seq_counts_per_key_and_restarts_when_forgotten() {
        let mut s = SendSeq::default();
        assert_eq!([s.next(1), s.next(1), s.next(2), s.next(1)], [0, 1, 0, 2]);
        s.forget(&1);
        assert_eq!((s.next(1), s.next(2)), (0, 1));
    }

    #[test]
    fn in_order_arrivals_deliver_at_once() {
        let mut w = RecvWindow::default();
        for seq in 0..4 {
            assert_eq!(w.arrive(7, seq, seq), Arrival::Deliver(seq));
            assert_eq!(w.release(&7), None);
        }
        assert_eq!(w.held(), 0);
    }

    #[test]
    fn a_gap_holds_and_its_filling_releases_the_run_behind_it() {
        let mut w = RecvWindow::default();
        assert_eq!(w.arrive(0, 2, "c"), Arrival::Held);
        assert_eq!(w.arrive(0, 1, "b"), Arrival::Held);
        assert_eq!(w.arrive(0, 4, "e"), Arrival::Held);
        // Another source is independent of the gap.
        assert_eq!(w.arrive(1, 0, "x"), Arrival::Deliver("x"));
        assert_eq!(w.release(&1), None);
        assert_eq!(w.held(), 3);
        assert_eq!(w.arrive(0, 0, "a"), Arrival::Deliver("a"));
        assert_eq!(w.release(&0), Some("b"));
        assert_eq!(w.release(&0), Some("c"));
        assert_eq!(w.release(&0), None, "4 still waits for 3");
        assert_eq!(w.arrive(0, 3, "d"), Arrival::Deliver("d"));
        assert_eq!(w.release(&0), Some("e"));
        assert_eq!(w.held(), 0);
    }

    #[test]
    fn delivered_and_held_sequence_numbers_are_duplicates() {
        let mut w = RecvWindow::default();
        assert_eq!(w.arrive(0, 0, 'a'), Arrival::Deliver('a'));
        assert_eq!(w.arrive(0, 0, 'a'), Arrival::Duplicate);
        assert_eq!(w.arrive(0, 2, 'c'), Arrival::Held);
        assert_eq!(w.arrive(0, 2, 'c'), Arrival::Duplicate);
        assert_eq!(w.held(), 1);
    }

    #[test]
    fn forgetting_a_source_drops_its_holds_and_restarts_it() {
        let mut w = RecvWindow::default();
        assert_eq!(w.arrive(5, 0, 0), Arrival::Deliver(0));
        assert_eq!(w.arrive(5, 3, 3), Arrival::Held);
        assert_eq!(w.arrive(6, 1, 1), Arrival::Held);
        w.forget(&5);
        assert_eq!(w.held(), 1);
        assert_eq!(w.arrive(5, 0, 0), Arrival::Deliver(0));
        assert_eq!(w.release(&6), None);
    }
}
