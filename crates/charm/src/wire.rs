//! Envelope encoding for Charm++ messages.
//!
//! A message carries: destination chare (collection, index), entry-method
//! id, source PE, marshalled host-side parameters, an optional amount of
//! *phantom* host payload (size-only, for at-scale runs), and one
//! [`DeviceMeta`] per `nocopydevice` parameter — the serialized form of the
//! paper's `CkDeviceBuffer` metadata (Fig. 5): everything the receiver needs
//! to post the matching device receive.
//!
//! The layers above Charm++ (AMPI, Charm4py) carry their user data in a
//! [`Payload`] inside the envelope's parameters: packed inline, or as the
//! machine-layer tag of a buffer sent through `LrtsSendDevice` (the Zero
//! Copy path of paper §III-C/D), delivered by [`crate::Pe::deliver_payload`].

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

/// User data of a message from a layer above Charm++ (AMPI, Charm4py).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Packed in the message (eager path for small host buffers). `bytes`
    /// is `None` when the source buffer was phantom.
    Inline { bytes: Option<Vec<u8>>, size: u64 },
    /// Sent separately through the machine layer under `ml_tag`
    /// (Zero Copy API: large host buffers and all device buffers).
    ZeroCopy { ml_tag: u64, size: u64 },
}

impl Payload {
    /// Bytes of user data the message carries.
    pub fn size(&self) -> u64 {
        match self {
            Payload::Inline { size, .. } | Payload::ZeroCopy { size, .. } => *size,
        }
    }

    /// Serialize after a `header_len`-byte layer header that `header`
    /// writes: kind byte, then `ml_tag, size` (zero copy) or `size`, a
    /// presence byte and the length-prefixed inline bytes.
    pub fn encode(&self, header_len: usize, header: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let inline = match self {
            Payload::Inline { bytes, .. } => bytes.as_ref().map_or(0, Vec::len),
            Payload::ZeroCopy { .. } => 0,
        };
        let mut b = Vec::with_capacity(header_len + 1 + 16 + inline);
        header(&mut b);
        match self {
            Payload::Inline { bytes, size } => {
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
            Payload::ZeroCopy { ml_tag, size } => {
                b.put_u8(1);
                b.put_u64(*ml_tag);
                b.put_u64(*size);
            }
        }
        b
    }

    /// Deserialize from `r`, positioned just past the layer header.
    pub fn decode(r: &mut &[u8]) -> Payload {
        match r.get_u8() {
            0 => {
                let size = r.get_u64();
                let bytes = match r.get_u8() {
                    1 => Some(r.get_bytes().to_vec()),
                    _ => None,
                };
                Payload::Inline { bytes, size }
            }
            1 => Payload::ZeroCopy {
                ml_tag: r.get_u64(),
                size: r.get_u64(),
            },
            k => panic!("bad payload kind {k}"),
        }
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

    /// The two layer headers a [`Payload`] follows on the wire.
    fn ampi_header(src: u32, tag: i32, seq: u64) -> impl FnOnce(&mut Vec<u8>) {
        move |b| {
            b.put_u32(src);
            b.put_i64(tag as i64);
            b.put_u64(seq);
        }
    }

    fn chan_header(src: u32, seq: u64) -> impl FnOnce(&mut Vec<u8>) {
        move |b| {
            b.put_u32(src);
            b.put_u64(seq);
        }
    }

    /// AMPI (`src, tag, seq`) and Charm4py channel (`src, seq`) messages
    /// pinned to their byte encodings, and each decoded back.
    #[test]
    fn payload_encodings_match_golden_bytes() {
        let ampi_inline = Payload::Inline {
            bytes: Some(vec![1, 2, 3]),
            size: 3,
        };
        let ampi_phantom = Payload::Inline {
            bytes: None,
            size: 4096,
        };
        let ampi_zero_copy = Payload::ZeroCopy {
            ml_tag: 0x2FFF_FFFF_0000_0001,
            size: 4 << 20,
        };
        let chan_inline = Payload::Inline {
            bytes: Some(vec![9, 8, 7, 6]),
            size: 4,
        };
        let chan_zero_copy = Payload::ZeroCopy {
            ml_tag: 0x1234,
            size: 8192,
        };
        #[rustfmt::skip]
        let cases: Vec<(usize, Vec<u8>, &Payload, Vec<u8>)> = vec![
            (20, ampi_inline.encode(20, ampi_header(3, 42, 17)), &ampi_inline, vec![
                0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0, 17,
                0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 3, 1, 2, 3,
            ]),
            (20, ampi_phantom.encode(20, ampi_header(0, -5, 0)), &ampi_phantom, vec![
                0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFB, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0x10, 0, 0,
            ]),
            (20, ampi_zero_copy.encode(20, ampi_header(1535, i32::MAX, u64::MAX)), &ampi_zero_copy, vec![
                0, 0, 5, 0xFF, 0, 0, 0, 0, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                1, 0x2F, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x40, 0, 0,
            ]),
            (12, chan_inline.encode(12, chan_header(2, 5)), &chan_inline, vec![
                0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5,
                0, 0, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 4, 9, 8, 7, 6,
            ]),
            (12, chan_zero_copy.encode(12, chan_header(6, 1)), &chan_zero_copy, vec![
                0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 1,
                1, 0, 0, 0, 0, 0, 0, 0x12, 0x34, 0, 0, 0, 0, 0, 0, 0x20, 0,
            ]),
        ];
        for (i, (header_len, bytes, payload, golden)) in cases.into_iter().enumerate() {
            assert_eq!(bytes, golden, "case {i}: encoding moved");
            let mut r = &bytes[header_len..];
            assert_eq!(&Payload::decode(&mut r), payload, "case {i}");
            assert!(r.is_empty(), "case {i}: trailing bytes");
        }
    }

    #[test]
    fn wire_size_accounts_for_all_parts() {
        let e = sample();
        assert_eq!(e.wire_size(), ENVELOPE_HEADER + 5 + (1 << 20) + 2 * 17);
    }
}
