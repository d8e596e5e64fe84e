//! AMPI message representation (paper §III-C).
//!
//! An AMPI message is a Charm++ message carrying MPI-specific metadata: the
//! source rank, the user's MPI tag, and either the payload itself (small
//! host buffers, packed eagerly into the message) or a zero-copy descriptor
//! — the machine-layer tag of a buffer sent separately through
//! `LrtsSendDevice`. Note the machine-layer tag is distinct from the MPI
//! tag, exactly as the paper describes.

use rucx_charm::Payload;
use rucx_compat::buf::{Buf, BufMut};

/// MPI wildcard source.
pub const ANY_SOURCE: i32 = -1;
/// MPI wildcard tag.
pub const ANY_TAG: i32 = -1;
/// Receive completed normally.
pub const MPI_SUCCESS: i32 = 0;
/// The message was longer than the posted receive buffer; only the
/// buffer-sized prefix was delivered.
pub const MPI_ERR_TRUNCATE: i32 = 15;
/// A communication operation failed: the UCP reliability layer exhausted
/// its retransmission budget (peer unreachable) or a rendezvous could not
/// be completed.
pub const MPI_ERR_OTHER: i32 = 16;

/// A decoded AMPI message (the metadata that rides in the Charm++ message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmpiMsg {
    pub src_rank: u32,
    pub tag: i32,
    /// Per-(sender, receiver) send sequence number. The machine layer may
    /// complete a large (rendezvous) envelope *after* a later small (eager)
    /// one; the receiver uses this to restore MPI's non-overtaking order
    /// before matching.
    pub seq: u64,
    pub payload: Payload,
}

impl AmpiMsg {
    /// Serialize into entry-method parameter bytes: `src, tag, seq`, then
    /// the payload.
    pub fn encode(&self) -> Vec<u8> {
        let (src, tag, seq) = (self.src_rank, self.tag, self.seq);
        self.payload.encode(4 + 8 + 8, |b| {
            b.put_u32(src);
            b.put_i64(tag as i64);
            b.put_u64(seq);
        })
    }

    /// Deserialize from entry-method parameter bytes.
    pub fn decode(params: &[u8]) -> AmpiMsg {
        let mut r: &[u8] = params;
        AmpiMsg {
            src_rank: r.get_u32(),
            tag: r.get_i64() as i32,
            seq: r.get_u64(),
            payload: Payload::decode(&mut r),
        }
    }
}

/// MPI receive matching: wildcards per the MPI standard.
pub fn recv_matches(want_src: i32, want_tag: i32, msg: &AmpiMsg) -> bool {
    (want_src == ANY_SOURCE || want_src as u32 == msg.src_rank)
        && (want_tag == ANY_TAG || want_tag == msg.tag)
}

/// Completion status of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub src: i32,
    pub tag: i32,
    /// Wire size of the matched message (may exceed the receive buffer —
    /// see `error`).
    pub size: u64,
    /// [`MPI_SUCCESS`], or [`MPI_ERR_TRUNCATE`] when the message was
    /// longer than the posted buffer.
    pub error: i32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_matching() {
        let m = AmpiMsg {
            src_rank: 2,
            tag: 7,
            seq: 0,
            payload: Payload::Inline {
                bytes: None,
                size: 0,
            },
        };
        assert!(recv_matches(2, 7, &m));
        assert!(recv_matches(ANY_SOURCE, 7, &m));
        assert!(recv_matches(2, ANY_TAG, &m));
        assert!(recv_matches(ANY_SOURCE, ANY_TAG, &m));
        assert!(!recv_matches(3, 7, &m));
        assert!(!recv_matches(2, 8, &m));
    }
}
