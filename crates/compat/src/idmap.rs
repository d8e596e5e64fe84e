//! Hash maps for keys the simulator mints itself.
//!
//! `std`'s default SipHash exists to resist keys crafted to collide. Memory
//! ids, rank pairs, chare indices, sequence numbers and tags are produced
//! by this program, so the protection buys nothing and — on tables probed
//! several times per simulated message — costs more than the lookup. Keys
//! that arrive from outside (fault-spec text, CLI input, trace names) keep
//! the default hasher.
//!
//! The hash is fixed-seed, so iteration order is the same on every run;
//! nothing may rely on that. Code that iterates one of these maps takes a
//! `min`, sorts, or otherwise produces an order-free result, exactly as it
//! had to under the randomly seeded default.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / golden ratio: odd, with no short bit period.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One folded multiply per integer field: the 128-bit product's halves
/// xor-ed together, so high input bits reach the low output bits hashbrown
/// picks a bucket from and low input bits reach the top seven it tags
/// control bytes with.
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v) * u128::from(K);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v.into());
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v.into());
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` keyed by simulator-internal ids; build with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// `HashSet` of simulator-internal ids; build with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// The same values on every run and platform: integer fields widen to
    /// `u64` before mixing and byte strings are read little-endian.
    #[test]
    fn fixed_vectors() {
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), 0x9e37_79b9_7f4a_7c15);
        assert_eq!(hash_of(1u32), hash_of(1u64));
        assert_eq!(hash_of(1usize), hash_of(1u64));
        assert_eq!(hash_of(0xdead_beef_u64), 0x00df_ed97_a74d_1096);
        assert_eq!(hash_of((1u32, 2u32)), 0x7a7b_a6d3_4c68_d209);
        assert_eq!(hash_of((1u16, 2u64)), hash_of((1u32, 2u32)));
        let mut h = IdHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(h.finish(), hash_of((1u64, 2u64)));
    }

    /// hashbrown indexes by the low bits and tags by the top seven: on the
    /// key shapes in use, 4096 keys must not pile up in either field.
    #[test]
    fn key_shapes_in_use_spread() {
        fn check(name: &str, hashes: Vec<u64>) {
            assert_eq!(hashes.len(), 4096);
            let mut low = [0u32; 4096];
            let mut top = [false; 128];
            for h in hashes {
                low[(h & 4095) as usize] += 1;
                top[(h >> 57) as usize] = true;
            }
            let worst = low.iter().max().expect("non-empty");
            assert!(*worst <= 8, "{name}: {worst} keys share one low-12 value");
            assert!(top.iter().all(|&t| t), "{name}: a top-7 value never occurs");
        }
        check("dense ids", (0..4096u64).map(hash_of).collect());
        check(
            "rank pairs",
            (0..64u32)
                .flat_map(|a| (0..64u32).map(move |b| hash_of((a, b))))
                .collect(),
        );
        check(
            "chare keys",
            (0..4u16)
                .flat_map(|c| (0..1024u64).map(move |i| hash_of((c, i))))
                .collect(),
        );
    }
}
