//! Algorithm selection: a closed-form integer cost model over the machine.
//!
//! Pure integer-nanosecond estimates, no floating-point accumulation in
//! the decision path beyond the shared `transfer_time` helper, so the
//! choice is a deterministic function of (message size, rank placement,
//! machine parameters, observed RTT). It consults:
//!
//! - `Topology::{same_node, node_of}` — how many nodes the group spans and
//!   how many ranks share each node/NIC;
//! - the PR-6 protocol engine's per-endpoint RTT EWMA when it has one for
//!   a representative cross-node pair (measured reality beats the static
//!   alpha once traffic has flowed);
//! - GPU/NIC bandwidth parameters for the wire terms and the HBM-bound
//!   combine-kernel term.

use rucx_fabric::net::{NIC_GBPS, PIPE_LATENCY, RAILS_PER_NODE};
use rucx_gpu::device::{COPY_LAUNCH, DMA_SETUP, KERNEL_LAUNCH, NVLINK_GBPS, SYNC_OVERHEAD};
use rucx_gpu::KernelCost;
use rucx_sim::time::{transfer_time, us};
use rucx_ucp::{MCtx, Machine};

/// A collective schedule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Binomial tree (broadcast / rooted reduce).
    Tree,
    /// Recursive doubling (latency-optimal butterfly).
    RecursiveDoubling,
    /// Ring reduce-scatter + allgather (bandwidth-optimal).
    Ring,
    /// Hierarchical NVLink-aware: intra-node phase, one leader per node
    /// across the network, intra-node broadcast.
    Hierarchical,
}

impl Algo {
    /// Parse a CLI algorithm name; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Algo> {
        match s {
            "tree" => Some(Algo::Tree),
            "rd" => Some(Algo::RecursiveDoubling),
            "ring" => Some(Algo::Ring),
            "hier" => Some(Algo::Hierarchical),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Algo::Tree => "tree",
            Algo::RecursiveDoubling => "rd",
            Algo::Ring => "ring",
            Algo::Hierarchical => "hier",
        }
    }
}

/// ceil(log2(x)) for x >= 1.
fn ceil_log2(x: usize) -> u64 {
    debug_assert!(x >= 1);
    (usize::BITS - (x - 1).leading_zeros()) as u64
}

/// The gathered machine facts one selection needs.
struct Estimator {
    n: usize,
    /// Nodes the group spans.
    nodes: usize,
    /// Largest rank count sharing one node (and its NIC rails).
    per_node: usize,
    alpha_inter: u64,
}

/// Intra-node alpha: one staged device copy, launched and synchronized.
const ALPHA_INTRA: u64 = COPY_LAUNCH + DMA_SETUP + SYNC_OVERHEAD;
/// CPU side of one combine kernel: launch plus the sync that follows it.
const COMBINE_FIXED: u64 = KERNEL_LAUNCH + SYNC_OVERHEAD;

impl Estimator {
    fn of(w: &Machine, n: usize) -> Estimator {
        let mut per_node_counts: Vec<usize> = Vec::new();
        for r in 0..n {
            let node = w.topo.node_of(r);
            if node >= per_node_counts.len() {
                per_node_counts.resize(node + 1, 0);
            }
            per_node_counts[node] += 1;
        }
        let nodes = per_node_counts.iter().filter(|&&c| c > 0).count();
        let per_node = per_node_counts.iter().copied().max().unwrap_or(1);
        // Static inter-node alpha: injection + switch transit; replaced by
        // half the best measured RTT across any participating cross-node
        // pair once the protocol engine has observed one. Probing only
        // (0, peer) here used to miss fresh samples whenever rank 0 had no
        // cross-node traffic (e.g. a sub-communicator without rank 0).
        let alpha_inter = if nodes > 1 {
            w.ucp
                .engine
                .cross_node_rtt(&w.topo, n)
                .map(|rtt| rtt / 2)
                .unwrap_or(PIPE_LATENCY)
        } else {
            PIPE_LATENCY
        };
        Estimator {
            n,
            nodes,
            per_node,
            alpha_inter,
        }
    }

    /// The combine-kernel model: launch + memory-bound kernel + sync.
    fn combine(&self, size: u64) -> u64 {
        COMBINE_FIXED
            + KernelCost {
                fixed: us(3.0),
                bytes: size * 3,
            }
            .duration()
    }

    fn t_intra(&self, size: u64) -> u64 {
        transfer_time(size, NVLINK_GBPS)
    }

    /// Inter-node wire time for one flow, accounting for the NIC-rail
    /// serialization a flat multi-node round suffers when `flows` ranks of
    /// one node all cross at once.
    fn t_inter(&self, size: u64, flows: usize) -> u64 {
        transfer_time(size, NIC_GBPS) * flows.div_ceil(RAILS_PER_NODE) as u64
    }

    fn rd_rounds(&self) -> u64 {
        let p2 = self.n.next_power_of_two() / if self.n.is_power_of_two() { 1 } else { 2 };
        ceil_log2(p2.max(1)) + if self.n.is_power_of_two() { 0 } else { 2 }
    }

    fn est_rd(&self, size: u64) -> u64 {
        let (alpha, wire) = if self.nodes > 1 {
            (self.alpha_inter, self.t_inter(size, self.per_node))
        } else {
            (ALPHA_INTRA, self.t_intra(size))
        };
        self.rd_rounds() * (alpha + wire + self.combine(size))
    }

    fn est_ring(&self, size: u64) -> u64 {
        let n = self.n as u64;
        let seg = (size / n).max(8);
        // Synchronized ring: the slowest edge (a cross-node one if the
        // group spans nodes) paces every step.
        let (alpha, wire) = if self.nodes > 1 {
            (self.alpha_inter, self.t_inter(seg, 1))
        } else {
            (ALPHA_INTRA, self.t_intra(seg))
        };
        // Every step is a full sendrecv of a fresh message: a GPU-direct
        // rendezvous per hop (DMA setup, copy launch, stream sync) plus
        // request bookkeeping at kernel-launch scale. The 2(n-1) small
        // steps are where a ring loses to fewer, fatter rounds; omitting
        // this term makes the ring look latency-free (calibrated against
        // the simulated OSU allreduce sweep).
        let step_sw = ALPHA_INTRA + COMBINE_FIXED;
        2 * (n - 1) * (alpha + wire + step_sw) + (n - 1) * self.combine(seg)
    }

    fn est_hier(&self, size: u64) -> u64 {
        let g = self.per_node as u64;
        let nn = self.nodes;
        let gather = (g - 1) * (ALPHA_INTRA + self.t_intra(size) + self.combine(size));
        let leader_rounds = ceil_log2(nn) + if nn.is_power_of_two() { 0 } else { 2 };
        let inter = leader_rounds * (self.alpha_inter + self.t_inter(size, 1) + self.combine(size));
        let fan_out = ceil_log2(self.per_node) * (ALPHA_INTRA + self.t_intra(size));
        gather + inter + fan_out
    }

    fn est_bcast_flat(&self, size: u64) -> u64 {
        let (alpha, wire) = if self.nodes > 1 {
            (self.alpha_inter, self.t_inter(size, self.per_node))
        } else {
            (ALPHA_INTRA, self.t_intra(size))
        };
        ceil_log2(self.n) * (alpha + wire)
    }

    fn est_bcast_hier(&self, size: u64) -> u64 {
        let handoff = ALPHA_INTRA + self.t_intra(size);
        let leaders = ceil_log2(self.nodes) * (self.alpha_inter + self.t_inter(size, 1));
        let fan_out = ceil_log2(self.per_node) * (ALPHA_INTRA + self.t_intra(size));
        handoff + leaders + fan_out
    }
}

/// Choose the allreduce schedule for `n` ranks moving `size` bytes.
pub fn choose_allreduce(w: &Machine, n: usize, size: u64) -> Algo {
    if n <= 1 {
        return Algo::RecursiveDoubling;
    }
    let e = Estimator::of(w, n);
    let mut best = (e.est_rd(size), Algo::RecursiveDoubling);
    // Ring needs one element per rank; hierarchical needs multiple nodes.
    if size / 8 >= n as u64 {
        let ring = e.est_ring(size);
        if ring < best.0 {
            best = (ring, Algo::Ring);
        }
    }
    if e.nodes > 1 {
        let hier = e.est_hier(size);
        if hier < best.0 {
            best = (hier, Algo::Hierarchical);
        }
    }
    best.1
}

/// Choose the broadcast schedule for `n` ranks moving `size` bytes.
pub fn choose_bcast(w: &Machine, n: usize, size: u64) -> Algo {
    if n <= 1 {
        return Algo::Tree;
    }
    let e = Estimator::of(w, n);
    if e.nodes > 1 && e.est_bcast_hier(size) < e.est_bcast_flat(size) {
        Algo::Hierarchical
    } else {
        Algo::Tree
    }
}

/// Selection entry points used by the dispatchers (read-only world access).
pub fn select_allreduce(ctx: &mut MCtx, n: usize, size: u64) -> Algo {
    ctx.with_world_ref(|w, _| choose_allreduce(w, n, size))
}

pub fn select_bcast(ctx: &mut MCtx, n: usize, size: u64) -> Algo {
    ctx.with_world_ref(|w, _| choose_bcast(w, n, size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_fabric::Topology;
    use rucx_ucp::{build_sim, MachineConfig};

    #[test]
    fn small_messages_pick_recursive_doubling() {
        let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
        let w = sim.world_mut();
        assert_eq!(choose_allreduce(w, 12, 8), Algo::RecursiveDoubling);
        assert_eq!(choose_allreduce(w, 12, 1024), Algo::RecursiveDoubling);
    }

    #[test]
    fn mid_sizes_pick_hierarchical_large_pick_ring() {
        // Matches the measured ordering of the simulated OSU allreduce
        // sweep on Summit(2): the NVLink-aware schedule wins once payloads
        // dwarf the per-hop alphas, and the bandwidth-optimal ring takes
        // over when segment transfer time dominates its 2(n-1) steps.
        let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
        let w = sim.world_mut();
        for size in [256u64 << 10, 1 << 20] {
            assert_eq!(choose_allreduce(w, 12, size), Algo::Hierarchical, "{size}");
        }
        for size in [4u64 << 20, 16 << 20] {
            assert_eq!(choose_allreduce(w, 12, size), Algo::Ring, "{size}");
        }
    }

    #[test]
    fn single_node_never_picks_hierarchical() {
        let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
        let w = sim.world_mut();
        for size in [8u64, 4096, 1 << 20, 16 << 20] {
            assert_ne!(choose_allreduce(w, 6, size), Algo::Hierarchical);
        }
    }

    #[test]
    fn bcast_goes_hierarchical_for_large_multi_node() {
        let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
        let w = sim.world_mut();
        assert_eq!(choose_bcast(w, 12, 64), Algo::Tree);
        assert_eq!(choose_bcast(w, 12, 4 << 20), Algo::Hierarchical);
    }

    /// Regression: the estimator used to probe only the endpoint pair
    /// `(0, peer)`, so observed RTT from other participating pairs was
    /// ignored whenever rank 0 had no cross-node traffic. Any cross-node
    /// pair inside the communicator must refresh the inter-node alpha.
    #[test]
    fn estimator_uses_rtt_from_rank0_less_pairs() {
        let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
        let w = sim.world_mut();
        let static_alpha = Estimator::of(w, 12).alpha_inter;
        // A fresh cross-node sample on (2, 8) — ranks on node 0 and node 1,
        // neither of them rank 0 — and nothing at all on (0, *).
        let rtt = 4 * static_alpha + 10_000;
        w.ucp.engine.observe_rtt((2, 8), rtt);
        assert_eq!(
            Estimator::of(w, 12).alpha_inter,
            rtt / 2,
            "observed RTT from a non-rank-0 pair must be picked up"
        );
        // A pair outside the communicator must not leak in.
        assert_eq!(Estimator::of(w, 8).alpha_inter, static_alpha);
        // Same-node samples never count as inter-node alpha.
        w.ucp.engine.observe_rtt((1, 3), 50);
        assert_eq!(Estimator::of(w, 12).alpha_inter, rtt / 2);
    }

    #[test]
    fn algo_parse_round_trips() {
        for a in [
            Algo::Tree,
            Algo::RecursiveDoubling,
            Algo::Ring,
            Algo::Hierarchical,
        ] {
            assert_eq!(Algo::parse(a.label()), Some(a));
        }
        assert_eq!(Algo::parse("auto"), None);
    }
}
