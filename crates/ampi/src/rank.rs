//! Per-rank state: the chare behind each AMPI rank, with the unexpected
//! message queue and posted-receive (request) queue of §III-C2.

use std::collections::VecDeque;

use rucx_compat::idmap::IdMap;
use rucx_gpu::MemRef;
use rucx_sim::sched::Trigger;
use rucx_sim::time::{transfer_time, us, Duration};

use crate::msg::{recv_matches, AmpiMsg, Status, MPI_ERR_TRUNCATE, MPI_SUCCESS};

// Calibration constants of the AMPI layer (costs *above* Charm++ and UCX —
// the "about 8 µs outside of UCX" the paper attributes to AMPI specifics:
// message packing/unpacking, the extra metadata message bookkeeping,
// callback invocations, and heap allocations).

/// Sender-side AMPI processing per message.
pub const SEND_OVERHEAD: Duration = us(1.35);
/// Receiver-side AMPI processing per message (matching, callbacks).
pub const RECV_OVERHEAD: Duration = us(1.15);
/// Host buffers at or below this size are packed inline (eager).
pub const INLINE_MAX: u64 = 16 * 1024;
/// Bandwidth for packing/unpacking inline payloads.
pub const COPY_GBPS: f64 = 9.5;
/// Cost of a GPU-pointer query answered by the software cache.
pub const CACHE_HIT: Duration = us(0.04);
/// Cost of a GPU-pointer query missing the cache (driver call).
pub const CACHE_MISS: Duration = us(0.30);

/// Cost of copying `size` bytes of inline payload.
pub fn copy_cost(size: u64) -> Duration {
    transfer_time(size, COPY_GBPS)
}

/// A receive posted before its message arrived.
pub struct PostedRecv {
    pub slot: u64,
    pub src: i32,
    pub tag: i32,
    pub buf: MemRef,
}

/// A receive matched to its message: the data is in the buffer, or in
/// flight under `trigger`.
#[derive(Debug, Clone, Copy)]
pub struct Matched {
    pub status: Status,
    pub trigger: Option<Trigger>,
}

/// The layer state behind one AMPI rank (in the rank shell's state chare).
#[derive(Default)]
pub struct RankState {
    pub unexpected: VecDeque<AmpiMsg>,
    pub posted: Vec<PostedRecv>,
    /// Receive requests by slot: `None` until matched.
    pub slots: IdMap<u64, Option<Matched>>,
    /// Asynchronous communication failures from the UCP reliability layer
    /// (routed here by the shell's error route); drained into
    /// `MPI_ERR_OTHER` statuses by `MPI_Wait`.
    pub comm_errors: VecDeque<rucx_ucp::UcpError>,
}

impl RankState {
    /// Find the first posted receive matching `msg`, in post order.
    pub fn match_posted(&self, msg: &AmpiMsg) -> Option<usize> {
        self.posted
            .iter()
            .position(|p| recv_matches(p.src, p.tag, msg))
    }

    /// Find the first unexpected message matching `(src, tag)`, in arrival
    /// order.
    pub fn match_unexpected(&self, src: i32, tag: i32) -> Option<usize> {
        self.unexpected
            .iter()
            .position(|m| recv_matches(src, tag, m))
    }

    /// Remove and return the first unexpected message matching `(src, tag)`.
    pub fn take_unexpected(&mut self, src: i32, tag: i32) -> Option<AmpiMsg> {
        let i = self.match_unexpected(src, tag)?;
        self.unexpected.remove(i)
    }

    /// The status of the first unexpected message matching `(src, tag)`.
    pub fn probe(&self, src: i32, tag: i32) -> Option<Status> {
        let i = self.match_unexpected(src, tag)?;
        Some(status_of(&self.unexpected[i]))
    }
}

/// Status derived from a matched (or probed) message, before any buffer is
/// known: always `MPI_SUCCESS`.
pub fn status_of(msg: &AmpiMsg) -> Status {
    Status {
        src: msg.src as i32,
        tag: msg.header,
        size: msg.payload.size(),
        error: MPI_SUCCESS,
    }
}

/// Status for a message delivered into `buf`: flags `MPI_ERR_TRUNCATE`
/// when the message is longer than the buffer.
pub fn status_into(msg: &AmpiMsg, buf: &MemRef) -> Status {
    let mut st = status_of(msg);
    if msg.payload.size() > buf.len {
        st.error = MPI_ERR_TRUNCATE;
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ANY_SOURCE, ANY_TAG};

    fn msg(src: u32, tag: i32) -> AmpiMsg {
        AmpiMsg {
            src,
            header: tag,
            seq: 0,
            payload: rucx_charm::Payload::Inline {
                bytes: None,
                size: 8,
            },
        }
    }

    fn dummy_buf() -> MemRef {
        MemRef {
            id: rucx_gpu::MemId(1),
            offset: 0,
            len: 8,
        }
    }

    #[test]
    fn posted_matching_is_post_order_with_wildcards() {
        let mut st = RankState::default();
        st.posted.push(PostedRecv {
            slot: 1,
            src: 5,
            tag: 9,
            buf: dummy_buf(),
        });
        st.posted.push(PostedRecv {
            slot: 2,
            src: ANY_SOURCE,
            tag: ANY_TAG,
            buf: dummy_buf(),
        });
        assert_eq!(st.match_posted(&msg(5, 9)), Some(0));
        assert_eq!(st.match_posted(&msg(4, 9)), Some(1));
        st.posted.remove(1);
        assert_eq!(st.match_posted(&msg(4, 9)), None);
    }

    #[test]
    fn unexpected_matching_is_arrival_order() {
        let mut st = RankState::default();
        st.unexpected.push_back(msg(1, 10));
        st.unexpected.push_back(msg(2, 10));
        assert_eq!(st.match_unexpected(ANY_SOURCE, 10), Some(0));
        assert_eq!(st.match_unexpected(2, ANY_TAG), Some(1));
        assert_eq!(st.match_unexpected(3, 10), None);
    }

    #[test]
    fn copy_cost_scales() {
        assert!(copy_cost(1 << 20) > copy_cost(1 << 10));
        assert_eq!(copy_cost(0), 0);
    }
}
