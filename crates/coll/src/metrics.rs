//! Collective-engine metrics registry: every counter the engine emits,
//! declared once as typed [`Metric`] handles (ad-hoc string literals at
//! call sites are rejected by `scripts/check.sh`).

use rucx_sim::Metric;

use crate::Algo;

/// Collectives dispatched onto a tree schedule (binomial bcast).
pub const ALGO_TREE: Metric = Metric::counter("coll.algo.tree");
/// Collectives dispatched onto recursive doubling.
pub const ALGO_RD: Metric = Metric::counter("coll.algo.rd");
/// Collectives dispatched onto the ring (reduce-scatter + allgather).
pub const ALGO_RING: Metric = Metric::counter("coll.algo.ring");
/// Collectives dispatched onto the hierarchical NVLink-aware schedule.
pub const ALGO_HIER: Metric = Metric::counter("coll.algo.hier");

/// The dispatch counter for a selected algorithm.
pub const fn algo(a: Algo) -> Metric {
    match a {
        Algo::Tree => ALGO_TREE,
        Algo::RecursiveDoubling => ALGO_RD,
        Algo::Ring => ALGO_RING,
        Algo::Hierarchical => ALGO_HIER,
    }
}

/// Collective payload bytes sent over same-socket NVLink hops.
pub const BYTES_NVLINK: Metric = Metric::counter("coll.bytes.nvlink");
/// Collective payload bytes sent over cross-socket X-Bus hops.
pub const BYTES_XBUS: Metric = Metric::counter("coll.bytes.xbus");
/// Collective payload bytes sent over inter-node (NIC) hops.
pub const BYTES_INTER: Metric = Metric::counter("coll.bytes.inter");
