//! AMPI message representation (paper §III-C).
//!
//! An AMPI message is a Charm++ message carrying MPI-specific metadata: the
//! source rank, the user's MPI tag, and either the payload itself (small
//! host buffers, packed eagerly into the message) or a zero-copy descriptor
//! — the machine-layer tag of a buffer sent separately through
//! `LrtsSendDevice`. Note the machine-layer tag is distinct from the MPI
//! tag, exactly as the paper describes.

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

/// How the payload travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmpiPayload {
    /// Packed in the message (eager path for small host buffers). `bytes`
    /// is `None` when the source buffer was phantom.
    Inline { bytes: Option<Vec<u8>>, size: u64 },
    /// Sent separately through the machine layer under `ml_tag`
    /// (Zero Copy API: large host buffers and all device buffers).
    ZeroCopy { ml_tag: u64, size: u64 },
}

impl AmpiPayload {
    pub fn size(&self) -> u64 {
        match self {
            AmpiPayload::Inline { size, .. } | AmpiPayload::ZeroCopy { size, .. } => *size,
        }
    }
}

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
    pub payload: AmpiPayload,
}

impl AmpiMsg {
    /// Serialize into entry-method parameter bytes.
    pub fn encode(&self) -> Vec<u8> {
        // src + tag + seq + kind, then two `u64`s (zero-copy) or size +
        // presence byte + length prefix (13 bytes) and the inline bytes.
        let inline = match &self.payload {
            AmpiPayload::Inline { bytes, .. } => bytes.as_ref().map_or(0, Vec::len),
            AmpiPayload::ZeroCopy { .. } => 0,
        };
        let mut b = Vec::with_capacity(4 + 8 + 8 + 1 + 16 + inline);
        b.put_u32(self.src_rank);
        b.put_i64(self.tag as i64);
        b.put_u64(self.seq);
        match &self.payload {
            AmpiPayload::Inline { bytes, size } => {
                b.put_u8(0);
                b.put_u64(*size);
                match bytes {
                    Some(d) => {
                        b.put_u8(1);
                        b.put_bytes(d);
                    }
                    None => b.put_u8(0),
                }
            }
            AmpiPayload::ZeroCopy { ml_tag, size } => {
                b.put_u8(1);
                b.put_u64(*ml_tag);
                b.put_u64(*size);
            }
        }
        b
    }

    /// Deserialize from entry-method parameter bytes.
    pub fn decode(params: &[u8]) -> AmpiMsg {
        let mut r: &[u8] = params;
        let src_rank = r.get_u32();
        let tag = r.get_i64() as i32;
        let seq = r.get_u64();
        let payload = match r.get_u8() {
            0 => {
                let size = r.get_u64();
                let bytes = match r.get_u8() {
                    1 => Some(r.get_bytes().to_vec()),
                    _ => None,
                };
                AmpiPayload::Inline { bytes, size }
            }
            1 => AmpiPayload::ZeroCopy {
                ml_tag: r.get_u64(),
                size: r.get_u64(),
            },
            k => panic!("bad AMPI payload kind {k}"),
        };
        AmpiMsg {
            src_rank,
            tag,
            seq,
            payload,
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
    fn inline_roundtrip() {
        let m = AmpiMsg {
            src_rank: 3,
            tag: 42,
            seq: 17,
            payload: AmpiPayload::Inline {
                bytes: Some(vec![1, 2, 3]),
                size: 3,
            },
        };
        assert_eq!(AmpiMsg::decode(&m.encode()), m);
    }

    #[test]
    fn phantom_inline_roundtrip() {
        let m = AmpiMsg {
            src_rank: 0,
            tag: -5,
            seq: 0,
            payload: AmpiPayload::Inline {
                bytes: None,
                size: 4096,
            },
        };
        assert_eq!(AmpiMsg::decode(&m.encode()), m);
    }

    #[test]
    fn zerocopy_roundtrip() {
        let m = AmpiMsg {
            src_rank: 1535,
            tag: i32::MAX,
            seq: u64::MAX,
            payload: AmpiPayload::ZeroCopy {
                ml_tag: 0x2FFF_FFFF_0000_0001,
                size: 4 << 20,
            },
        };
        assert_eq!(AmpiMsg::decode(&m.encode()), m);
    }

    #[test]
    fn wildcard_matching() {
        let m = AmpiMsg {
            src_rank: 2,
            tag: 7,
            seq: 0,
            payload: AmpiPayload::Inline {
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
