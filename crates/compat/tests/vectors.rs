//! Reference vectors for the PRNG stack, locking the exact output streams
//! down so a refactor can never silently change every simulation result.
//!
//! Vectors were generated with an independent implementation of the
//! published algorithms (Blackman & Vigna's xoshiro256++, Steele et al.'s
//! splitmix64); the seed-0 splitmix64 head matches the canonical test
//! vector `0xe220a8397b1dcdaf`.

use rucx_compat::rng::{splitmix64, Rng};

fn splitmix_head(seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed;
    (0..n).map(|_| splitmix64(&mut s)).collect()
}

fn xoshiro_head(seed: u64, n: usize) -> Vec<u64> {
    let mut r = Rng::new(seed);
    (0..n).map(|_| r.next_u64()).collect()
}

#[test]
fn splitmix64_reference_vectors() {
    assert_eq!(
        splitmix_head(0, 4),
        [
            0xe220a8397b1dcdaf,
            0x6e789e6aa1b965f4,
            0x06c45d188009454f,
            0xf88bb8a8724c81ec,
        ]
    );
    assert_eq!(
        splitmix_head(42, 4),
        [
            0xbdd732262feb6e95,
            0x28efe333b266f103,
            0x47526757130f9f52,
            0x581ce1ff0e4ae394,
        ]
    );
    assert_eq!(
        splitmix_head(0xDEADBEEF, 4),
        [
            0x4adfb90f68c9eb9b,
            0xde586a3141a10922,
            0x021fbc2f8e1cfc1d,
            0x7466ce737be16790,
        ]
    );
}

#[test]
fn xoshiro256pp_reference_vectors() {
    assert_eq!(
        xoshiro_head(0, 8),
        [
            0x53175d61490b23df,
            0x61da6f3dc380d507,
            0x5c0fdf91ec9a7bfc,
            0x02eebf8c3bbe5e1a,
            0x7eca04ebaf4a5eea,
            0x0543c37757f08d9a,
            0xdb7490c75ab5026e,
            0xd87343e6464bc959,
        ]
    );
    assert_eq!(
        xoshiro_head(42, 8),
        [
            0xd0764d4f4476689f,
            0x519e4174576f3791,
            0xfbe07cfb0c24ed8c,
            0xb37d9f600cd835b8,
            0xcb231c3874846a73,
            0x968d9f004e50de7d,
            0x201718ff221a3556,
            0x9ae94e070ed8cb46,
        ]
    );
    assert_eq!(
        xoshiro_head(0xDEADBEEF, 8),
        [
            0x0c520eb8fea98ede,
            0x2b74a6338b80e0e2,
            0xbe238770c3795322,
            0x5f235f98a244ea97,
            0xe004f0cc1514d858,
            0x436a209963ff9223,
            0x8302e81b9685b6d4,
            0xa7eec00b77ec3019,
        ]
    );
}

#[test]
fn from_state_matches_seeded_construction() {
    // Seeding is exactly "4 splitmix64 outputs become the state".
    let mut s = 42u64;
    let state = [
        splitmix64(&mut s),
        splitmix64(&mut s),
        splitmix64(&mut s),
        splitmix64(&mut s),
    ];
    let mut a = Rng::from_state(state);
    let mut b = Rng::new(42);
    for _ in 0..64 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
