//! One-slot rendezvous cell for strictly alternating handshakes.
//!
//! The simulation's process-wakeup path is a pure handoff: at most one
//! message (the execution baton) is ever in flight toward a given
//! receiver, which parks until it arrives. A general MPSC channel pays a
//! `VecDeque` plus queue bookkeeping per hop for capacity it never uses.
//! This cell is the purpose-built alternative:
//! a single `Mutex<Option<T>>` slot, a `Condvar`, and an atomic
//! availability hint that lets the receiver wait adaptively before parking
//! — on an immediate handoff the hop completes without any futex round
//! trip.
//!
//! The pre-park wait strategy depends on the machine: with more than one
//! CPU the receiver spins (`spin_loop`) so the peer's store is caught
//! within nanoseconds; on a uniprocessor spinning only *delays* the peer,
//! so the receiver donates its timeslice (`thread::yield_now`) instead —
//! strictly serial execution means the sender is typically the only other
//! runnable thread, so one yield usually schedules it and the handoff is
//! present on the next check.
//!
//! Contract: **at most one message outstanding per direction**. Sending
//! into an occupied slot is a protocol violation and panics. Disconnects
//! surface on both ends: dropping the sender makes `recv` return
//! `Err(RecvError)`, dropping the receiver makes `send` fail with the value.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

/// The receiver was dropped; the unsent value is returned.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// The sender was dropped with nothing in the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Nothing to take; keep spinning or park.
const HINT_EMPTY: u32 = 0;
/// A value is present *or* the sender is gone: leave the spin loop and
/// resolve under the lock.
const HINT_READY: u32 = 1;

/// Bounded spin budget (multicore) before the receiver parks on the
/// condvar. Sized so an immediate reply (sub-microsecond) is caught while
/// a genuinely idle receiver reaches the condvar in a few microseconds at
/// worst.
const SPIN_LIMIT: u32 = 4096;

/// Bounded yield budget (uniprocessor). Each futile `yield_now` is a
/// syscall, so this stays small: under serial execution the first yield
/// normally schedules the peer, and a receiver with no sender coming (a
/// parked simulated process) reaches the condvar after a handful.
const YIELD_LIMIT: u32 = 8;

/// Whether this machine can run the two sides of a rendezvous truly in
/// parallel (cached once; used to pick the pre-park wait strategy).
fn multicore() -> bool {
    use std::sync::OnceLock;
    static MULTICORE: OnceLock<bool> = OnceLock::new();
    *MULTICORE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() > 1)
            .unwrap_or(false)
    })
}

struct Slot<T> {
    value: Option<T>,
    sender_alive: bool,
    receiver_alive: bool,
    receiver_parked: bool,
}

struct Shared<T> {
    /// Lock-free mirror of "is there anything for the receiver": written
    /// under the slot lock, read by the receiver's spin loop.
    hint: AtomicU32,
    slot: Mutex<Slot<T>>,
    avail: Condvar,
}

/// Sending half of a rendezvous cell.
pub struct RendezvousSender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a rendezvous cell.
pub struct RendezvousReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a rendezvous cell: a one-slot, single-producer single-consumer
/// handoff with spin-then-park receives.
pub fn rendezvous<T>() -> (RendezvousSender<T>, RendezvousReceiver<T>) {
    let shared = Arc::new(Shared {
        hint: AtomicU32::new(HINT_EMPTY),
        slot: Mutex::new(Slot {
            value: None,
            sender_alive: true,
            receiver_alive: true,
            receiver_parked: false,
        }),
        avail: Condvar::new(),
    });
    (
        RendezvousSender {
            shared: shared.clone(),
        },
        RendezvousReceiver { shared },
    )
}

impl<T> RendezvousSender<T> {
    /// Place a value in the slot; never blocks. Errors iff the receiver is
    /// gone. Panics if the slot is already occupied (the caller broke the
    /// one-outstanding-message contract).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.shared.slot.lock();
        if !s.receiver_alive {
            return Err(SendError(value));
        }
        assert!(
            s.value.is_none(),
            "rendezvous protocol violation: send into an occupied slot"
        );
        s.value = Some(value);
        self.shared.hint.store(HINT_READY, Ordering::Release);
        let parked = s.receiver_parked;
        drop(s);
        // A spinning receiver sees the hint; only a parked one needs the
        // (comparatively expensive) wakeup.
        if parked {
            self.shared.avail.notify_one();
        }
        Ok(())
    }
}

impl<T> Drop for RendezvousSender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.slot.lock();
        s.sender_alive = false;
        self.shared.hint.store(HINT_READY, Ordering::Release);
        let parked = s.receiver_parked;
        drop(s);
        if parked {
            self.shared.avail.notify_one();
        }
    }
}

impl<T> RendezvousReceiver<T> {
    /// Take the value, waiting adaptively (spin on multicore, yield on a
    /// uniprocessor) and then parking until one arrives or the sender is
    /// dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        if self.shared.hint.load(Ordering::Acquire) == HINT_EMPTY {
            if multicore() {
                let mut spins = 0;
                while spins < SPIN_LIMIT && self.shared.hint.load(Ordering::Acquire) == HINT_EMPTY {
                    std::hint::spin_loop();
                    spins += 1;
                }
            } else {
                let mut yields = 0;
                while yields < YIELD_LIMIT && self.shared.hint.load(Ordering::Acquire) == HINT_EMPTY
                {
                    std::thread::yield_now();
                    yields += 1;
                }
            }
        }
        // Correctness lives entirely below; the wait above is only a fast
        // path to reach the lock with the value already present.
        let mut s = self.shared.slot.lock();
        loop {
            if let Some(v) = s.value.take() {
                self.shared.hint.store(HINT_EMPTY, Ordering::Release);
                return Ok(v);
            }
            if !s.sender_alive {
                return Err(RecvError);
            }
            s.receiver_parked = true;
            self.shared.avail.wait(&mut s);
            s.receiver_parked = false;
        }
    }

    /// Non-blocking take.
    pub fn try_recv(&self) -> Option<T> {
        if self.shared.hint.load(Ordering::Acquire) == HINT_EMPTY {
            return None;
        }
        let mut s = self.shared.slot.lock();
        let v = s.value.take();
        if v.is_some() {
            self.shared.hint.store(HINT_EMPTY, Ordering::Release);
        }
        v
    }
}

impl<T> Drop for RendezvousReceiver<T> {
    fn drop(&mut self) {
        let mut s = self.shared.slot.lock();
        s.receiver_alive = false;
        s.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_handoff() {
        let (tx, rx) = rendezvous();
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv(), Ok(7));
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn ping_pong_across_threads() {
        let (req_tx, req_rx) = rendezvous::<u64>();
        let (rep_tx, rep_rx) = rendezvous::<u64>();
        let h = std::thread::spawn(move || {
            for _ in 0..10_000 {
                let v = req_rx.recv().unwrap();
                rep_tx.send(v + 1).unwrap();
            }
        });
        let mut v = 0;
        for _ in 0..10_000 {
            req_tx.send(v).unwrap();
            v = rep_rx.recv().unwrap();
        }
        assert_eq!(v, 10_000);
        h.join().unwrap();
    }

    #[test]
    fn recv_errors_after_sender_dropped() {
        let (tx, rx) = rendezvous::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        // The in-flight value is still delivered, then disconnection.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn parked_receiver_wakes_on_sender_drop() {
        let (tx, rx) = rendezvous::<u8>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_receiver_dropped() {
        let (tx, rx) = rendezvous::<u8>();
        drop(rx);
        match tx.send(9) {
            Err(SendError(v)) => assert_eq!(v, 9),
            Ok(()) => panic!("send must fail"),
        }
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn double_send_panics() {
        let (tx, _rx) = rendezvous();
        tx.send(1u8).unwrap();
        let _ = tx.send(2u8);
    }

    #[test]
    fn delayed_send_wakes_parked_receiver() {
        let (tx, rx) = rendezvous();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        // Sleep well past any spin budget so the receiver truly parks.
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(42u32).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }
}
