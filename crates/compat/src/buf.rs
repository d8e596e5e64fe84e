//! Big-endian byte-order cursors for wire formats (the `bytes::Buf` /
//! `bytes::BufMut` subset the envelope codec uses).
//!
//! `BufMut` is implemented for `Vec<u8>` (append) and `Buf` for `&[u8]`
//! (consume from the front), so existing `put_*` / `get_*` call sites work
//! unchanged. All integers are big-endian on the wire, matching the
//! network byte order the real Charm++/UCX stack uses.

/// Append-side: network-byte-order writers.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// A `u32` length prefix, then the bytes.
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_slice(v);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Consume-side: network-byte-order readers over a shrinking slice.
///
/// The `get_*` methods panic on underrun (like `bytes`); callers guard
/// with [`Buf::remaining`] first, which is what makes `decode` total.
pub trait Buf {
    fn remaining(&self) -> usize;
    /// Split off the first `n` bytes, advancing the cursor.
    fn take_bytes(&mut self, n: usize) -> &[u8];

    fn get_u8(&mut self) -> u8 {
        self.take_bytes(1)[0]
    }
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take_bytes(2).try_into().unwrap())
    }
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_bytes(4).try_into().unwrap())
    }
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take_bytes(8).try_into().unwrap())
    }
    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take_bytes(8).try_into().unwrap())
    }
    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take_bytes(8).try_into().unwrap())
    }
    /// Read what [`BufMut::put_bytes`] wrote.
    fn get_bytes(&mut self) -> &[u8] {
        let n = self.get_u32() as usize;
        self.take_bytes(n)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_bytes(&mut self, n: usize) -> &[u8] {
        let (head, rest) = self.split_at(n);
        *self = rest;
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut b: Vec<u8> = Vec::new();
        b.put_u8(0xAB);
        b.put_u16(0x1234);
        b.put_u32(0xDEADBEEF);
        b.put_u64(0x0123_4567_89AB_CDEF);
        b.put_i64(-42);
        b.put_f64(2.5);
        b.put_bytes(b"hello");
        b.put_slice(b"xyz");
        let mut r: &[u8] = &b;
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xDEADBEEF);
        assert_eq!(r.get_u64(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_i64(), -42);
        assert_eq!(r.get_f64(), 2.5);
        assert_eq!(r.get_bytes(), b"hello");
        assert_eq!(r.take_bytes(3), b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn big_endian_on_the_wire() {
        let mut b: Vec<u8> = Vec::new();
        b.put_u16(0x0102);
        b.put_bytes(&[9, 8]);
        assert_eq!(b, vec![1, 2, 0, 0, 0, 2, 9, 8]);
    }

    #[test]
    #[should_panic]
    fn underrun_panics() {
        let mut r: &[u8] = &[1, 2];
        let _ = r.get_u32();
    }
}
