//! Envelope encoding for Charm++ messages.
//!
//! A message carries: destination chare (collection, index), entry-method
//! id, source PE, marshalled host-side parameters, an optional amount of
//! *phantom* host payload (size-only, for at-scale runs), and one
//! [`DeviceMeta`] per `nocopydevice` parameter — the serialized form of the
//! paper's `CkDeviceBuffer` metadata (Fig. 5): everything the receiver needs
//! to post the matching device receive.

use rucx_compat::buf::{Buf, BufMut};

/// Metadata describing one in-flight GPU buffer (wire form of
/// `CkDeviceBuffer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMeta {
    /// Machine-layer tag the sender used for the GPU data
    /// (`UCX_MSG_TAG_DEVICE` type).
    pub tag: u64,
    /// Payload size in bytes.
    pub size: u64,
}

/// A decoded Charm++ message envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Destination collection (chare array) id.
    pub collection: u16,
    /// Destination element index within the collection.
    pub index: u64,
    /// Entry-method id within the destination chare's type.
    pub ep: u16,
    /// Sending PE.
    pub src_pe: u32,
    /// Marshalled host-side parameters.
    pub params: Vec<u8>,
    /// Additional host payload bytes that travel on the wire but are not
    /// materialized (models large host-side data at scale).
    pub phantom_payload: u64,
    /// One entry per GPU buffer sent in tandem.
    pub device: Vec<DeviceMeta>,
}

/// Fixed per-envelope header overhead on the wire (Converse + Charm++ core
/// headers in the real runtime).
pub const ENVELOPE_HEADER: u64 = 64;

impl Envelope {
    /// Bytes this envelope occupies on the wire (header + params + phantom
    /// payload + device metadata).
    pub fn wire_size(&self) -> u64 {
        ENVELOPE_HEADER
            + self.params.len() as u64
            + self.phantom_payload
            // Modelled metadata per device buffer: a calibration value,
            // not the 16-byte record `encode` writes.
            + self.device.len() as u64 * 17
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32 + self.params.len() + self.device.len() * 16);
        b.put_u16(self.collection);
        b.put_u64(self.index);
        b.put_u16(self.ep);
        b.put_u32(self.src_pe);
        b.put_u64(self.phantom_payload);
        b.put_u16(self.device.len() as u16);
        for d in &self.device {
            b.put_u64(d.tag);
            b.put_u64(d.size);
        }
        b.put_u32(self.params.len() as u32);
        b.put_slice(&self.params);
        b
    }

    /// Deserialize; returns `None` on malformed input.
    pub fn decode(mut buf: &[u8]) -> Option<Envelope> {
        if buf.remaining() < 2 + 8 + 2 + 4 + 8 + 2 {
            return None;
        }
        let collection = buf.get_u16();
        let index = buf.get_u64();
        let ep = buf.get_u16();
        let src_pe = buf.get_u32();
        let phantom_payload = buf.get_u64();
        let ndev = buf.get_u16() as usize;
        if buf.remaining() < ndev * 16 + 4 {
            return None;
        }
        let mut device = Vec::with_capacity(ndev);
        for _ in 0..ndev {
            let tag = buf.get_u64();
            let size = buf.get_u64();
            device.push(DeviceMeta { tag, size });
        }
        let plen = buf.get_u32() as usize;
        if buf.remaining() < plen {
            return None;
        }
        let params = buf[..plen].to_vec();
        Some(Envelope {
            collection,
            index,
            ep,
            src_pe,
            params,
            phantom_payload,
            device,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope {
            collection: 3,
            index: 42,
            ep: 7,
            src_pe: 11,
            params: vec![1, 2, 3, 4, 5],
            phantom_payload: 1 << 20,
            device: vec![
                DeviceMeta {
                    tag: 0xDEAD,
                    size: 4096,
                },
                DeviceMeta {
                    tag: 0xBEEF,
                    size: 8192,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let e = sample();
        let bytes = e.encode();
        assert_eq!(Envelope::decode(&bytes), Some(e));
    }

    #[test]
    fn roundtrip_empty() {
        let e = Envelope {
            collection: 0,
            index: 0,
            ep: 0,
            src_pe: 0,
            params: vec![],
            phantom_payload: 0,
            device: vec![],
        };
        let bytes = e.encode();
        assert_eq!(Envelope::decode(&bytes), Some(e));
    }

    #[test]
    fn truncated_input_is_none() {
        let bytes = sample().encode();
        for cut in [0, 1, 5, 17, bytes.len() - 1] {
            assert_eq!(Envelope::decode(&bytes[..cut]), None, "cut={cut}");
        }
    }

    #[test]
    fn wire_size_accounts_for_all_parts() {
        let e = sample();
        assert_eq!(e.wire_size(), ENVELOPE_HEADER + 5 + (1 << 20) + 2 * 17);
    }
}
