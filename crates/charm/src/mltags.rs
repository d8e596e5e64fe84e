//! UCX machine-layer tag generation (paper §III-A, Fig. 3).
//!
//! The 64-bit UCP tag is split into three fields:
//!
//! ```text
//! | MSG_BITS (4) | PE_BITS (32) | CNT_BITS (28) |
//! ```
//!
//! `MSG_BITS` distinguishes message types — host-side Converse messages vs
//! the `UCX_MSG_TAG_DEVICE` type added by this work for inter-GPU
//! communication. The remainder holds the source PE and a per-PE counter,
//! at the paper's 32/28 split.

use rucx_ucp::{Tag, TagMask};

/// Number of bits reserved for the message type.
pub const MSG_BITS: u32 = 4;
/// Number of bits holding the source PE.
pub const PE_BITS: u32 = 32;
/// Number of bits holding the per-PE device-send counter.
pub const CNT_BITS: u32 = 28;

const _: () = assert!(MSG_BITS + PE_BITS + CNT_BITS == 64);

/// Message types carried in the top `MSG_BITS` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Host-side Converse message (envelope + host data).
    Host = 1,
    /// Direct GPU-GPU transfer (`UCX_MSG_TAG_DEVICE`).
    Device = 2,
}

/// The machine layer's tag format: builds and parses tags at the fixed
/// MSG/PE/CNT split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagScheme;

impl TagScheme {
    /// Largest PE index representable.
    pub fn max_pe(&self) -> u64 {
        (1u64 << PE_BITS) - 1
    }

    /// Counter wraps at this value.
    pub fn cnt_period(&self) -> u64 {
        1u64 << CNT_BITS
    }

    /// Tag for a device (GPU-GPU) transfer from `src_pe` with counter value
    /// `cnt` (wrapped into the counter field).
    pub fn device_tag(&self, src_pe: usize, cnt: u64) -> Tag {
        assert!(
            (src_pe as u64) <= self.max_pe(),
            "PE {src_pe} exceeds the tag's {PE_BITS}-bit PE field"
        );
        ((MsgType::Device as u64) << (64 - MSG_BITS))
            | ((src_pe as u64) << CNT_BITS)
            | (cnt & (self.cnt_period() - 1))
    }

    /// Tag for host-side Converse messages from `src_pe`.
    pub fn host_tag(&self, src_pe: usize) -> Tag {
        assert!((src_pe as u64) <= self.max_pe());
        ((MsgType::Host as u64) << (64 - MSG_BITS)) | ((src_pe as u64) << CNT_BITS)
    }

    /// `(tag, mask)` pair matching *any* host-side Converse message.
    pub fn host_probe(&self) -> (Tag, TagMask) {
        (
            (MsgType::Host as u64) << (64 - MSG_BITS),
            0xFu64 << (64 - MSG_BITS),
        )
    }

    /// Extract the message type from a tag.
    pub fn msg_type(&self, tag: Tag) -> Option<MsgType> {
        match tag >> (64 - MSG_BITS) {
            1 => Some(MsgType::Host),
            2 => Some(MsgType::Device),
            _ => None,
        }
    }

    /// Extract the source PE field.
    pub fn src_pe(&self, tag: Tag) -> usize {
        ((tag << MSG_BITS) >> (MSG_BITS + CNT_BITS)) as usize
    }

    /// Extract the counter field.
    pub fn cnt(&self, tag: Tag) -> u64 {
        tag & (self.cnt_period() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_split_is_4_32_28() {
        let s = TagScheme;
        assert_eq!((MSG_BITS, PE_BITS, CNT_BITS), (4, 32, 28));
        assert_eq!(s.max_pe(), u32::MAX as u64);
        assert_eq!(s.cnt_period(), 1 << 28);
    }

    #[test]
    fn device_tag_roundtrip() {
        let s = TagScheme;
        let t = s.device_tag(12345, 678);
        assert_eq!(s.msg_type(t), Some(MsgType::Device));
        assert_eq!(s.src_pe(t), 12345);
        assert_eq!(s.cnt(t), 678);
    }

    #[test]
    fn counter_wraps_within_field() {
        let s = TagScheme;
        let t = s.device_tag(1, (1 << 28) + 3); // wraps mod 2^28
        assert_eq!(s.cnt(t), 3);
        assert_eq!(s.src_pe(t), 1);
        assert_eq!(t, s.device_tag(1, 3));
    }

    #[test]
    fn host_probe_matches_host_only() {
        let s = TagScheme;
        let (want, mask) = s.host_probe();
        let host = s.host_tag(7);
        let dev = s.device_tag(7, 1);
        assert!(rucx_ucp::tag_matches(want, mask, host));
        assert!(!rucx_ucp::tag_matches(want, mask, dev));
    }

    #[test]
    #[should_panic(expected = "32-bit PE field")]
    fn pe_overflow_panics() {
        TagScheme.device_tag(1 << 32, 0);
    }

    #[test]
    fn distinct_senders_and_counters_distinct_tags() {
        let s = TagScheme;
        let mut seen = std::collections::HashSet::new();
        for pe in 0..8 {
            for cnt in 0..8 {
                assert!(seen.insert(s.device_tag(pe, cnt)));
            }
        }
    }
}
