//! Property-based tests of the machine-layer tag scheme (paper Fig. 3) and
//! the envelope wire format, on the in-repo harness
//! ([`rucx_compat::check`]).

use rucx_charm::{DeviceMeta, Envelope, MsgType, TagScheme};
use rucx_compat::buf::{Buf, BufMut};
use rucx_compat::check::check;

/// Any PE and counter roundtrip (type, PE, counter) exactly.
#[test]
fn tag_roundtrip() {
    check("tag_roundtrip", |g| {
        let scheme = TagScheme;
        let pe = g.u64(0..scheme.max_pe() + 1) as usize;
        let cnt = g.any_u64();
        let t = scheme.device_tag(pe, cnt);
        assert_eq!(scheme.msg_type(t), Some(MsgType::Device));
        assert_eq!(scheme.src_pe(t), pe);
        assert_eq!(scheme.cnt(t), cnt % scheme.cnt_period());
        // Host tags never collide with device tags.
        let h = scheme.host_tag(pe);
        assert_ne!(t, h);
        let (want, mask) = scheme.host_probe();
        assert!(rucx_ucp::tag_matches(want, mask, h));
        assert!(!rucx_ucp::tag_matches(want, mask, t));
    });
}

/// Tags are unique within a PE until the counter wraps.
#[test]
fn tags_unique_within_period() {
    check("tags_unique_within_period", |g| {
        let scheme = TagScheme;
        let period = scheme.cnt_period();
        let pe = g.usize(0..64);
        let base = g.u64(0..period);
        let mut seen = std::collections::HashSet::new();
        for c in base..base + (1 << 12) {
            assert!(seen.insert(scheme.device_tag(pe, c)));
        }
        // Wrap: counter `base + period` aliases counter `base`.
        assert_eq!(
            scheme.device_tag(pe, base + period),
            scheme.device_tag(pe, base)
        );
    });
}

/// Envelope encode/decode is the identity for arbitrary contents.
#[test]
fn envelope_roundtrip() {
    check("envelope_roundtrip", |g| {
        let e = Envelope {
            collection: g.any_u16(),
            index: g.any_u64(),
            ep: g.any_u16(),
            src_pe: g.any_u32(),
            params: g.bytes(0..256),
            phantom_payload: g.any_u64(),
            device: g.vec(0..8, |g| DeviceMeta {
                tag: g.any_u64(),
                size: g.any_u64(),
            }),
        };
        let bytes = e.encode();
        assert_eq!(Envelope::decode(&bytes), Some(e));
    });
}

/// Decoding never panics on arbitrary bytes (malformed input is None or
/// a best-effort envelope, never a crash).
#[test]
fn envelope_decode_never_panics() {
    check("envelope_decode_never_panics", |g| {
        let bytes = g.bytes(0..128);
        let _ = Envelope::decode(&bytes);
    });
}

/// Entry-method parameters written with `BufMut` read back with `Buf`.
#[test]
fn marshal_roundtrip() {
    check("marshal_roundtrip", |g| {
        let a = g.any_u64();
        let b = g.any_f64();
        let c = g.any_u32();
        let d = g.any_i64();
        let e = g.any_u8();
        let blob = g.bytes(0..64);
        let mut buf = Vec::new();
        buf.put_u64(a);
        buf.put_f64(b);
        buf.put_u32(c);
        buf.put_i64(d);
        buf.put_u8(e);
        buf.put_bytes(&blob);
        let mut r: &[u8] = &buf;
        assert_eq!(r.get_u64(), a);
        let rb = r.get_f64();
        assert!(rb == b || (rb.is_nan() && b.is_nan()));
        assert_eq!(r.get_u32(), c);
        assert_eq!(r.get_i64(), d);
        assert_eq!(r.get_u8(), e);
        assert_eq!(r.get_bytes(), &blob[..]);
    });
}
