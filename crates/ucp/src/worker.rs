//! Per-process UCP workers: posted-receive and unexpected-message queues,
//! i.e. the tag-matching engine.

#![allow(clippy::type_complexity)]

use std::collections::VecDeque;

use rucx_gpu::MemRef;
use rucx_sim::sched::{Notify, Scheduler, Trigger};

use crate::machine::Machine;
use crate::tag::{tag_matches, Tag, TagMask};

/// Scheduler type over the concrete world.
pub type MSched = Scheduler<Machine>;

/// Completion action for send-side and control-side events.
pub enum Completion {
    /// Nothing to do.
    None,
    /// Fire a trigger (blocking callers wait on it).
    Trigger(Trigger),
    /// Run a callback against the world when the operation completes.
    Callback(Box<dyn FnOnce(&mut Machine, &mut MSched) + Send>),
}

/// Information handed to receive completions.
#[derive(Debug, Clone, Copy)]
pub struct RecvInfo {
    /// Process index of the sender.
    pub src: usize,
    /// Tag the message arrived with.
    pub tag: Tag,
    /// Wire size of the message in bytes.
    pub size: u64,
    /// The message was larger than the posted receive buffer: only the
    /// buffer-sized prefix was delivered. Runtimes map this to an
    /// `MPI_ERR_TRUNCATE`-style error instead of silently succeeding.
    pub truncated: bool,
}

/// Completion action for receives.
pub enum RecvCompletion {
    Trigger(Trigger),
    Callback(Box<dyn FnOnce(&mut Machine, &mut MSched, RecvInfo) + Send>),
    /// Receives the message bytes (present when the sender's payload was
    /// materialized) — used for runtime-internal host messages that do not
    /// live in the simulated memory pool.
    Bytes(Box<dyn FnOnce(&mut Machine, &mut MSched, Option<Vec<u8>>, RecvInfo) + Send>),
}

/// A receive posted with `ucp_tag_recv_nb`.
pub(crate) struct ExpectedRecv {
    pub tag: Tag,
    pub mask: TagMask,
    pub buf: MemRef,
    pub done: RecvCompletion,
}

/// Body of a message that arrived at a worker. `Clone` because the
/// reliability layer retransmits envelopes from a kept copy.
#[derive(Clone)]
pub(crate) enum ArrivedBody {
    /// Full eager payload (bytes present when materialized at the sender).
    Eager {
        bytes: Option<Vec<u8>>,
        wire_size: u64,
    },
    /// Rendezvous RTS: data is still at the sender, described by the
    /// registered RTS entry.
    Rts { rts_id: u64, size: u64 },
}

pub(crate) struct ArrivedMsg {
    pub tag: Tag,
    pub src: usize,
    pub body: ArrivedBody,
}

/// Per-process UCP worker.
pub struct Worker {
    pub(crate) expected: VecDeque<ExpectedRecv>,
    pub(crate) unexpected: VecDeque<ArrivedMsg>,
    /// Asynchronous errors surfaced by the reliability layer (endpoint
    /// timeouts, failed rendezvous), in occurrence order. Model layers
    /// drain this via [`Worker::take_error`] and map each record onto
    /// their own semantics.
    pub(crate) errors: VecDeque<crate::error::UcpError>,
    /// Bumped on every unexpected arrival and every local completion;
    /// PE scheduler loops park on this.
    pub notify: Notify,
}

impl Worker {
    pub fn new(notify: Notify) -> Self {
        Worker {
            expected: VecDeque::new(),
            unexpected: VecDeque::new(),
            errors: VecDeque::new(),
            notify,
        }
    }

    /// Pop the oldest pending asynchronous error, if any.
    pub fn take_error(&mut self) -> Option<crate::error::UcpError> {
        self.errors.pop_front()
    }

    /// Find (without removing) the first unexpected message matching
    /// `(tag, mask)` in arrival order.
    pub(crate) fn find_unexpected(&self, tag: Tag, mask: TagMask) -> Option<usize> {
        self.unexpected
            .iter()
            .position(|m| tag_matches(tag, mask, m.tag))
    }

    /// Find the first posted receive matching an arrival with `tag`, in
    /// post order.
    pub(crate) fn find_expected(&self, tag: Tag) -> Option<usize> {
        self.expected
            .iter()
            .position(|e| tag_matches(e.tag, e.mask, tag))
    }

    /// Queue depths `(expected, unexpected)` for diagnostics/tests.
    pub fn depths(&self) -> (usize, usize) {
        (self.expected.len(), self.unexpected.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{MASK_FULL, MASK_NONE};
    use rucx_gpu::MemId;

    fn dummy_ref() -> MemRef {
        MemRef {
            id: MemId(1),
            offset: 0,
            len: 8,
        }
    }

    fn worker() -> Worker {
        // Notify(0) placeholder; matching logic does not touch it.
        Worker::new(Notify::from_raw(0))
    }

    #[test]
    fn unexpected_matching_is_fifo() {
        let mut w = worker();
        for tag in [5u64, 7, 5] {
            w.unexpected.push_back(ArrivedMsg {
                tag,
                src: 0,
                body: ArrivedBody::Eager {
                    bytes: None,
                    wire_size: 1,
                },
            });
        }
        assert_eq!(w.find_unexpected(5, MASK_FULL), Some(0));
        assert_eq!(w.find_unexpected(7, MASK_FULL), Some(1));
        assert_eq!(w.find_unexpected(9, MASK_FULL), None);
        assert_eq!(w.find_unexpected(0, MASK_NONE), Some(0));
    }

    #[test]
    fn expected_matching_is_post_order() {
        let mut w = worker();
        for (tag, mask) in [(1u64, MASK_FULL), (0, MASK_NONE), (2, MASK_FULL)] {
            w.expected.push_back(ExpectedRecv {
                tag,
                mask,
                buf: dummy_ref(),
                done: RecvCompletion::Trigger(Trigger::from_raw(0)),
            });
        }
        // Arrival with tag 2 matches the wildcard posted earlier first.
        assert_eq!(w.find_expected(2), Some(1));
        assert_eq!(w.find_expected(1), Some(0));
        assert_eq!(w.find_expected(99), Some(1));
    }
}
