//! AMPI message representation (paper §III-C).
//!
//! An AMPI message is a Charm++ message carrying MPI-specific metadata: the
//! source rank, the user's MPI tag, and either the payload itself (small
//! host buffers, packed eagerly into the message) or a zero-copy descriptor
//! — the machine-layer tag of a buffer sent separately through
//! `LrtsSendDevice`. Note the machine-layer tag is distinct from the MPI
//! tag, exactly as the paper describes.

use rucx_charm::rank::Arrived;

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

/// An AMPI message as it is matched: the metadata that rode in the
/// Charm++ message, delivered in send order by the rank shell (MPI's
/// non-overtaking rule). Its header is the MPI tag.
pub type AmpiMsg = Arrived<i32>;

/// MPI receive matching: wildcards per the MPI standard.
pub fn recv_matches(want_src: i32, want_tag: i32, msg: &AmpiMsg) -> bool {
    (want_src == ANY_SOURCE || want_src as u32 == msg.src)
        && (want_tag == ANY_TAG || want_tag == msg.header)
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
    use rucx_charm::Payload;

    #[test]
    fn wildcard_matching() {
        let m = AmpiMsg {
            src: 2,
            header: 7,
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
