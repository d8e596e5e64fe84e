//! # rucx-compat — hermetic, std-only substrate for the whole workspace
//!
//! The repository builds and tests with **zero external registry
//! dependencies** so that `cargo build --release --offline && cargo test -q
//! --offline` succeeds on any checkout, with no network. Everything the
//! crates used to take from `parking_lot`, `crossbeam`, `rand`, `proptest`,
//! `criterion`, `bytes`, and `serde` lives here instead, as small,
//! deterministic, in-repo implementations:
//!
//! - [`sync`] — poison-free [`sync::Mutex`] / [`sync::RwLock`] /
//!   [`sync::Condvar`] wrappers over `std::sync` with the `parking_lot` API
//!   shape (no `.unwrap()` plumbing at call sites).
//! - [`rendezvous`] — a one-slot, spin-then-park handoff cell for strictly
//!   alternating handshakes between two OS threads. Not on the simulator's
//!   path (its processes are coroutines on one thread); kept as the subject
//!   of the frozen benchmark's `compat.rendezvous_ns_per_handoff` rung.
//! - [`rng`] — splitmix64-seeded xoshiro256++ PRNG with a
//!   `gen_range`/`fill`-style surface; the single source of randomness for
//!   workload synthesis and the property harness.
//! - [`check`] — a minimal property-testing harness: seeded case
//!   generation, configurable case count, failing-seed reporting and exact
//!   reproduction (no shrinking).
//! - [`timer`] — a criterion-free micro-benchmark runner: warmup + N
//!   timed iterations, median/p99 reporting, JSON output.
//! - [`buf`] — `Buf`/`BufMut` byte-order helpers for wire formats.
//! - [`json`] — a [`json::ToJson`] trait plus impls for the result types
//!   benchmarks serialize.
//! - [`idmap`] — [`idmap::IdMap`] / [`idmap::IdSet`]: `HashMap`/`HashSet`
//!   with a fixed-seed multiplicative hasher, for tables keyed by ids the
//!   simulator mints itself.
//!
//! Determinism is a design constraint, not an accident: the PRNG is
//! explicitly seeded everywhere, the property harness derives each case
//! from `(suite seed, case index)`, and nothing in this crate consults
//! wall-clock time except [`timer`] (which measures the simulator itself,
//! never simulated results).

pub mod buf;
pub mod check;
pub mod idmap;
pub mod json;
pub mod rendezvous;
pub mod rng;
pub mod sync;
pub mod timer;
